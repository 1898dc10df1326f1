//go:build race

package tcptransport

const raceEnabled = true
