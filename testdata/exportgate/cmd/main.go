package main

import "exportgate/a"

func main() {
	_ = a.A{}
	_ = a.Depth()
	a.Configure(&a.T{})
}
