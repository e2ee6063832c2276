// Package a holds the cases the export gate must tell apart.
package a

// A's QueueDepth has only a test caller: the gate reports it.
type A struct{}

func (A) QueueDepth() int { return 0 }

// B's QueueDepth has a production caller in Depth.
type B struct{}

func (B) QueueDepth() int { return 1 }

func Depth() int { return B{}.QueueDepth() }

// T's SetTimeout is reached only through an anonymous interface in a
// type assertion: the gate does not report it.
type T struct{}

func (*T) SetTimeout(ms int) {}

func Configure(x any) {
	if s, ok := x.(interface{ SetTimeout(int) }); ok {
		s.SetTimeout(1)
	}
}
