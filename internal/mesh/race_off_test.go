//go:build !race

package mesh_test

const raceEnabled = false
