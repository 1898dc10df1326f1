//go:build !race

package icc_test

const raceEnabled = false
