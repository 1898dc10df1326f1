//go:build race

package icc_test

const raceEnabled = true
