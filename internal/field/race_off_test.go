//go:build !race

package field

const raceEnabled = false
