//go:build !race

package ds

const raceEnabled = false
