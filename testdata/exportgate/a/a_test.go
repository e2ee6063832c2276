package a

import "testing"

func TestQueueDepth(t *testing.T) {
	if (A{}).QueueDepth() != 0 {
		t.Fatal("depth")
	}
}
