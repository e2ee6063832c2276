package faults

import (
	"flexsfp/internal/mgmt"
)

// Transport wraps an inner mgmt.Transport with transport-level faults:
// connection drops (where the request may or may not have reached the
// agent before the connection died — the case that forces idempotent,
// resumable clients), stalls that surface as deadline errors, and
// single-byte response corruption.
type Transport struct {
	in    *Injector
	inner mgmt.Transport
}

// WrapTransport layers the injector's transport faults over inner.
func (in *Injector) WrapTransport(inner mgmt.Transport) *Transport {
	return &Transport{in: in, inner: inner}
}

// Do implements mgmt.Transport.
func (t *Transport) Do(req []byte) ([]byte, error) {
	in := t.in
	if in.Roll(in.rates.ConnDrop) {
		in.stats.ConnDrops++
		// Half the time the request landed and only the response was
		// lost — the ambiguous failure a robust client must tolerate.
		if in.float64() < 0.5 {
			t.inner.Do(req)
		}
		return nil, ErrConnDropped
	}
	if in.Roll(in.rates.Stall) {
		in.stats.Stalls++
		return nil, ErrStalled
	}
	resp, err := t.inner.Do(req)
	if err != nil {
		return nil, err
	}
	if len(resp) > 0 && in.Roll(in.rates.Corrupt) {
		in.stats.Corruptions++
		resp = append([]byte(nil), resp...)
		resp[in.intn(len(resp))] ^= 1 << uint(in.intn(8))
	}
	return resp, nil
}
