package transport

import "sync/atomic"

// Codec turns request/response values into payload bytes and back.
// Every connection speaks the one codec installed with InstallCodec —
// the federation's dits-bin/1 — and the transport.hello exchange (see
// tcp.go) checks that both ends of a TCP connection name the same one.
//
// Append appends the encoding of v to dst and returns the extended
// slice, so hot paths can reuse one buffer across calls without
// allocating; encoding nil appends nothing (the empty body). Decode
// unmarshals a payload into v; decoding into nil discards the payload.
// Implementations must be safe for concurrent use.
type Codec interface {
	Name() string
	Append(dst []byte, v any) ([]byte, error)
	Decode(data []byte, v any) error
}

var installed atomic.Pointer[Codec]

// InstallCodec makes c the payload codec of every peer and server in the
// process. The federation package installs its binary codec from init;
// transport cannot import it. Installing the codec already installed is
// a no-op, and installing a different one panics: a process speaks one
// codec.
func InstallCodec(c Codec) {
	if installed.CompareAndSwap(nil, &c) {
		return
	}
	if cur := *installed.Load(); cur != c {
		panic("transport: codec " + cur.Name() + " already installed, cannot install " + c.Name())
	}
}

// wireCodec returns the installed codec.
func wireCodec() Codec {
	c := installed.Load()
	if c == nil {
		panic("transport: no codec installed (import dits/internal/federation)")
	}
	return *c
}
