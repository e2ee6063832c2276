//go:build race

package bitstream

func init() { raceEnabled = true }
