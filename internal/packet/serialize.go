package packet

// SerializeOptions controls layer serialization.
type SerializeOptions struct {
	// FixLengths makes layers compute their length fields from the
	// payload already serialized below them.
	FixLengths bool
	// ComputeChecksums makes layers compute checksums (IPv4 header, TCP,
	// UDP, ICMPv4).
	ComputeChecksums bool
}

// SerializeBuffer builds packets back to front: upper layers append their
// payload first, then each lower layer prepends its header. The buffer
// keeps headroom at the front so prepends rarely reallocate.
type SerializeBuffer struct {
	buf   []byte
	start int
}

// NewSerializeBuffer returns an empty buffer with default headroom for a
// typical L2–L4 header stack.
func NewSerializeBuffer() *SerializeBuffer {
	return NewSerializeBufferExpectedSize(128, 1600)
}

// NewSerializeBufferExpectedSize returns a buffer with headroom for
// expectedPrepend bytes of headers and room for expectedAppend payload.
func NewSerializeBufferExpectedSize(expectedPrepend, expectedAppend int) *SerializeBuffer {
	return &SerializeBuffer{
		buf:   make([]byte, expectedPrepend, expectedPrepend+expectedAppend),
		start: expectedPrepend,
	}
}

// Bytes returns the serialized packet.
func (b *SerializeBuffer) Bytes() []byte { return b.buf[b.start:] }

// Len returns the current serialized length.
func (b *SerializeBuffer) Len() int { return len(b.buf) - b.start }

// Clear resets the buffer, restoring full headroom.
func (b *SerializeBuffer) Clear() {
	b.start = cap(b.buf)
	if b.start > len(b.buf) {
		b.buf = b.buf[:b.start]
	}
	// Keep headroom bounded: reuse the whole capacity as headroom.
	b.buf = b.buf[:b.start]
}

// PrependBytes returns a slice of n fresh bytes at the front of the packet.
func (b *SerializeBuffer) PrependBytes(n int) []byte {
	if n < 0 {
		panic("packet: PrependBytes with negative length")
	}
	if b.start < n {
		// Grow at the front.
		extra := n - b.start
		if extra < 64 {
			extra = 64
		}
		nb := make([]byte, len(b.buf)+extra, cap(b.buf)+extra)
		copy(nb[extra:], b.buf)
		b.buf = nb
		b.start += extra
	}
	b.start -= n
	return b.buf[b.start : b.start+n]
}

// AppendBytes returns a slice of n fresh bytes at the back of the packet.
func (b *SerializeBuffer) AppendBytes(n int) []byte {
	if n < 0 {
		panic("packet: AppendBytes with negative length")
	}
	old := len(b.buf)
	if old+n > cap(b.buf) {
		nb := make([]byte, old+n, (old+n)*2)
		copy(nb, b.buf)
		b.buf = nb
	} else {
		b.buf = b.buf[:old+n]
	}
	for i := old; i < old+n; i++ {
		b.buf[i] = 0
	}
	return b.buf[old:]
}

// SerializeLayers clears b and serializes the given layers into it, last
// layer first, so each lower layer sees its final payload.
func SerializeLayers(b *SerializeBuffer, opts SerializeOptions, layers ...SerializableLayer) error {
	b.Clear()
	for i := len(layers) - 1; i >= 0; i-- {
		if err := layers[i].SerializeTo(b, opts); err != nil {
			return err
		}
	}
	return nil
}

// Payload is a raw byte SerializableLayer, used as the innermost layer.
type Payload []byte

// LayerType implements Layer.
func (p *Payload) LayerType() LayerType { return LayerTypePayload }

// DecodeFromBytes implements Layer.
func (p *Payload) DecodeFromBytes(data []byte) error {
	*p = data
	return nil
}

// NextLayerType implements Layer.
func (p *Payload) NextLayerType() LayerType { return LayerTypeZero }

// LayerPayload implements Layer.
func (p *Payload) LayerPayload() []byte { return nil }

// SerializeTo implements SerializableLayer.
func (p *Payload) SerializeTo(b *SerializeBuffer, _ SerializeOptions) error {
	copy(b.PrependBytes(len(*p)), *p)
	return nil
}
