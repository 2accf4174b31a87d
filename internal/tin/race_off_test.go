//go:build !race

package tin

const raceEnabled = false
