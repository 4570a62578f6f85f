//go:build !race

package zpart

const raceEnabled = false
