//go:build race

package trafficgen

func init() { raceEnabled = true }
