//go:build !race

package chantransport

const raceEnabled = false
