//go:build !amd64

package netsim

// cpuPause has no hint to issue here; the spin loop just re-reads its gate.
func cpuPause() {}
