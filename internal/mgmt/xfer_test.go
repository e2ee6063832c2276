package mgmt

import (
	"errors"
	"sync"
	"testing"

	"flexsfp/internal/flash"
)

func xferBeginBody(slot uint8, total uint32) []byte {
	var w bodyWriter
	w.u8(slot)
	w.u8(0)
	w.u32(total)
	return w.b
}

// TestXferBeginRejectsUncommittable: a transfer that could never commit
// (a slot the flash does not have, or more bytes than a slot plus its
// HMAC tag) is refused at begin, before any chunk is streamed.
func TestXferBeginRejectsUncommittable(t *testing.T) {
	_, a, _ := newAgentModule(t)
	c := newDirectClient(a)
	cases := []struct {
		slot  uint8
		total uint32
		ok    bool
	}{
		{flash.NumSlots - 1, 1000, true},
		{2, maxTransfer, true},
		{flash.NumSlots, 1000, false},
		{9, 1000, false},
		{255, 1000, false},
		{2, maxTransfer + 1, false},
		{2, 5 << 20, false},
	}
	for _, tc := range cases {
		_, err := c.do(MsgXferBegin, xferBeginBody(tc.slot, tc.total))
		var re *RemoteError
		switch {
		case tc.ok && err != nil:
			t.Errorf("begin slot %d, %d B: %v", tc.slot, tc.total, err)
		case !tc.ok && (!errors.As(err, &re) || re.Code != CodeBadBody):
			t.Errorf("begin slot %d, %d B: err = %v, want remote CodeBadBody", tc.slot, tc.total, err)
		}
	}
}

// TestXferReusesCommittedBuffer: the next begin after a commit reuses
// the committed transfer's buffer, and the old image left in it can
// neither complete a partial transfer nor leak into a new one.
func TestXferReusesCommittedBuffer(t *testing.T) {
	m, a, _ := newAgentModule(t)
	c := newDirectClient(a)
	v2, v3 := signedStatefulImage(t, 2), signedStatefulImage(t, 3)
	if len(v2) != len(v3) {
		t.Fatalf("image sizes %d and %d differ", len(v2), len(v3))
	}
	if err := c.PushBitstream(v2, 2, false); err != nil {
		t.Fatal(err)
	}
	spare := a.spare
	if cap(spare) < len(v2) {
		t.Fatalf("agent kept a %d B buffer after committing %d B", cap(spare), len(v2))
	}
	if _, err := c.do(MsgXferBegin, xferBeginBody(3, uint32(len(v3)))); err != nil {
		t.Fatal(err)
	}
	if &a.xfer.buf[0] != &spare[0] {
		t.Error("begin after a commit allocated a new buffer")
	}
	// One chunk of v3 over the old v2 bytes is still an incomplete
	// transfer.
	var cw bodyWriter
	cw.u32(0)
	cw.bytes(v3[:100])
	if _, err := c.do(MsgXferChunk, cw.b); err != nil {
		t.Fatal(err)
	}
	var re *RemoteError
	if _, err := c.do(MsgXferCommit, nil); !errors.As(err, &re) || re.Code != CodeBadState {
		t.Errorf("commit of a partial transfer in a reused buffer: %v", err)
	}
	if err := c.PushBitstream(v3, 3, false); err != nil {
		t.Fatal(err)
	}
	for slot, want := range map[int]uint32{2: 2, 3: 3} {
		bs, _, err := m.Flash.LoadBitstream(slot)
		if err != nil || bs.AppVersion != want {
			t.Errorf("slot %d: %+v, %v; want version %d", slot, bs, err, want)
		}
	}
}

// TestXferBufferReuseConcurrent runs pushes on one goroutine while another
// keeps beginning and filling transfers. Only the first commits, since
// flash operations are serialized with the simulator, so the race
// detector checks that a begin never hands out a buffer a commit is still
// installing.
func TestXferBufferReuseConcurrent(t *testing.T) {
	m, a, _ := newAgentModule(t)
	c := newDirectClient(a)
	img := signedStatefulImage(t, 2)
	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for range rounds {
			c.PushBitstream(img, 2, false) // a begin from the other side may fail it
		}
	}()
	go func() {
		defer wg.Done()
		for range rounds {
			a.Handle(Message{Type: MsgXferBegin, Body: xferBeginBody(3, uint32(len(img)))}.Encode())
			for off := 0; off < len(img); off += XferChunkSize {
				var cw bodyWriter
				cw.u32(uint32(off))
				cw.bytes(img[off:min(off+XferChunkSize, len(img))])
				a.Handle(Message{Type: MsgXferChunk, Body: cw.b}.Encode())
			}
		}
	}()
	wg.Wait()
	if err := c.PushBitstream(img, 2, false); err != nil {
		t.Fatal(err)
	}
	if bs, _, err := m.Flash.LoadBitstream(2); err != nil || bs.AppVersion != 2 {
		t.Errorf("slot 2 after the final push: %+v, %v", bs, err)
	}
}
