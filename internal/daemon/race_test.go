//go:build race

package daemon

func init() { raceEnabled = true }
