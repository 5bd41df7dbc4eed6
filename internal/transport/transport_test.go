package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dits/internal/metrics"
)

// echoHandler answers method+":"+request for string requests; the method
// "fail" answers a handler error.
func echoHandler(ctx context.Context, codec Codec, method string, body []byte) (any, error) {
	if method == "fail" {
		return nil, errors.New("boom")
	}
	var s string
	if len(body) > 0 {
		if err := codec.Decode(body, &s); err != nil {
			return nil, err
		}
	}
	out := method + ":" + s
	return &out, nil
}

// echo round-trips one string call through a peer.
func echo(t *testing.T, p Peer, method, payload string) string {
	t.Helper()
	var resp string
	if err := p.Call(context.Background(), method, &payload, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestInProcCountsBytes(t *testing.T) {
	m := &Metrics{}
	p := &InProc{Name: "s1", Handler: echoHandler, Metrics: m}
	if got := echo(t, p, "hello", "world"); got != "hello:world" {
		t.Fatalf("resp = %q", got)
	}
	if m.Messages() != 1 {
		t.Errorf("Messages = %d, want 1", m.Messages())
	}
	if m.BytesSent() != int64(len("world")+len("hello")) {
		t.Errorf("BytesSent = %d", m.BytesSent())
	}
	if m.BytesReceived() != int64(len("hello:world")) {
		t.Errorf("BytesReceived = %d", m.BytesReceived())
	}
	if err := p.Call(context.Background(), "fail", nil, nil); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("error not propagated: %v", err)
	}
	// Errors do not count as delivered traffic.
	if m.Messages() != 1 {
		t.Errorf("failed call counted: %d", m.Messages())
	}
	if info := p.WireInfo(); info.Codec != (stringCodec{}).Name() || info.Compression {
		t.Errorf("WireInfo = %+v, want the installed codec, uncompressed", info)
	}
	p.Close()
}

func TestInProcHonorsCancelledContext(t *testing.T) {
	p := &InProc{Name: "s1", Handler: echoHandler, Metrics: &Metrics{}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Call(ctx, "m", nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Call on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestMetricsTransmissionTime(t *testing.T) {
	m := &Metrics{}
	m.Record("test.method", 600, 400) // 1000 bytes total
	if got := m.TransmissionTime(1000); got != time.Second {
		t.Errorf("TransmissionTime = %v, want 1s", got)
	}
	if got := m.TransmissionTime(0); got != 0 {
		t.Errorf("zero bandwidth should yield 0, got %v", got)
	}
	pm := m.PerMethod()
	if ms := pm["test.method"]; ms.Calls != 1 || ms.BytesSent != 600 || ms.BytesReceived != 400 {
		t.Errorf("per-method stats = %+v", ms)
	}
	m.RecordFailure("src-a")
	m.RecordFailure("src-a")
	if m.TotalFailures() != 2 || m.Failures()["src-a"] != 2 {
		t.Errorf("failures = %d %v", m.TotalFailures(), m.Failures())
	}
	m.RecordCompression(1000, 300, true)
	if raw, wire := m.CompressionBytes(); raw != 1000 || wire != 300 {
		t.Errorf("CompressionBytes = %d, %d", raw, wire)
	}
	if m.CompressedMessages() != 1 {
		t.Errorf("CompressedMessages = %d", m.CompressedMessages())
	}
	m.Reset()
	if m.Bytes() != 0 || m.Messages() != 0 || len(m.PerMethod()) != 0 || m.TotalFailures() != 0 {
		t.Error("Reset did not zero counters")
	}
	if raw, wire := m.CompressionBytes(); raw != 0 || wire != 0 || m.CompressedMessages() != 0 {
		t.Error("Reset did not zero compression counters")
	}
	var nilM *Metrics
	nilM.Record("x", 1, 1)             // must not panic
	nilM.RecordFailure("x")            // must not panic
	nilM.RecordCompression(1, 1, true) // must not panic
}

func TestMetricsRegisterExposes(t *testing.T) {
	m := &Metrics{}
	m.Record("overlap.search", 100, 50)
	m.RecordFailure("src-b")
	m.RecordCompression(90, 40, true)
	r := metrics.NewRegistry()
	m.Register(r)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"dits_transport_messages_total 1",
		"dits_transport_sent_bytes_total 100",
		`dits_transport_method_calls_total{method="overlap.search"} 1`,
		`dits_transport_source_failures_total{source="src-b"} 1`,
		"dits_transport_compress_raw_bytes_total 90",
		"dits_transport_compress_wire_bytes_total 40",
		"dits_transport_compressed_messages_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestTCPRoundTrip(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	m := &Metrics{}
	peer, err := Dial("s1", srv.Addr(), m)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	for i := 0; i < 10; i++ {
		if got := echo(t, peer, "m", "payload"); got != "m:payload" {
			t.Fatalf("resp = %q", got)
		}
	}
	if m.Messages() != 10 {
		t.Errorf("Messages = %d, want 10", m.Messages())
	}
	if err := peer.Call(context.Background(), "fail", nil, nil); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("remote error not propagated: %v", err)
	}
}

// TestTCPNegotiation pins the handshake outcomes: a default dial against a
// default server agrees on the installed codec with compression and trace
// on, and NoCompress on either end turns compression off but keeps the
// codec.
func TestTCPNegotiation(t *testing.T) {
	name := stringCodec{}.Name()
	for _, tc := range []struct {
		label    string
		scfg     ServeConfig
		dcfg     DialConfig
		compress bool
	}{
		{"default", ServeConfig{}, DialConfig{}, true},
		{"server NoCompress", ServeConfig{NoCompress: true}, DialConfig{}, false},
		{"dialer NoCompress", ServeConfig{}, DialConfig{NoCompress: true}, false},
	} {
		srv, err := ServeWith("127.0.0.1:0", echoHandler, tc.scfg)
		if err != nil {
			t.Fatal(err)
		}
		peer, err := DialWith("s1", srv.Addr(), &Metrics{}, tc.dcfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		want := WireInfo{Codec: name, Compression: tc.compress, Trace: true}
		if info := peer.WireInfo(); info != want {
			t.Errorf("%s: WireInfo = %+v, want %+v", tc.label, info, want)
		}
		if got := echo(t, peer, "m", "payload"); got != "m:payload" {
			t.Errorf("%s: resp = %q", tc.label, got)
		}
		peer.Close()
		srv.Close()
	}
}

// sendHello writes a hello request with the given body on conn, framed
// as a dialer would, and returns the server's status and payload.
func sendHello(t *testing.T, conn net.Conn, body string) (byte, string) {
	t.Helper()
	w := bufio.NewWriter(conn)
	if err := writeFrame(w, []byte(MethodHello)); err != nil {
		t.Fatal(err)
	}
	var deadline [8]byte
	w.Write(deadline[:])
	if err := writeFrame(w, []byte(body)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	status, err := r.ReadByte()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := readFrameReuse(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	return status, string(payload)
}

// TestServerRefusesForeignHello: a hello naming gob, an unknown codec, or
// a codec list, and a hello that does not parse, each get an error reply
// naming what arrived, and the server then closes the connection.
func TestServerRefusesForeignHello(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	name := stringCodec{}.Name()
	for _, tc := range []struct{ body, want string }{
		{helloMagic + " gob gzip,trace", `"gob"`},
		{helloMagic + " dits-bin/9 -", `"dits-bin/9"`},
		{helloMagic + " " + name + ",gob gzip", `"` + name + `,gob"`},
		{"dits-hello/0 " + name + " -", "malformed hello"},
		{"hello?", "malformed hello"},
		{"", "malformed hello"},
	} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		status, payload := sendHello(t, conn, tc.body)
		if status != 1 || !strings.Contains(payload, tc.want) {
			t.Errorf("hello %q: status %d, reply %q; want an error naming %s", tc.body, status, payload, tc.want)
		}
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("hello %q: connection still open after refusal (read err %v)", tc.body, err)
		}
		conn.Close()
	}

	// The one accepted form echoes the codec and the granted options.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if status, payload := sendHello(t, conn, helloMagic+" "+name+" gzip"); status != 0 || payload != name+" gzip" {
		t.Fatalf("valid hello: status %d, reply %q", status, payload)
	}
}

// TestDialRefusesForeignHelloReply: against a server that rejects the
// hello, or answers with any codec but the installed one, the dial fails
// with an error naming the codec instead of speaking something else.
func TestDialRefusesForeignHelloReply(t *testing.T) {
	name := stringCodec{}.Name()
	for _, tc := range []struct {
		status      byte
		reply, want string
	}{
		{1, "unknown method transport.hello", name},
		{0, "gob gzip", "gob"},
		{0, "dits-bin/9 gzip trace", "dits-bin/9"},
		{0, "", name},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			if _, err := readFrameReuse(r, nil); err != nil { // method
				return
			}
			if _, err := io.ReadFull(r, make([]byte, 8)); err != nil { // deadline
				return
			}
			if _, err := readFrameReuse(r, nil); err != nil { // body
				return
			}
			writeResponse(bufio.NewWriter(conn), tc.status, []byte(tc.reply))
			io.Copy(io.Discard, conn) // hold the connection until the dialer drops it
		}()
		peer, err := Dial("s1", ln.Addr().String(), &Metrics{})
		if err == nil {
			peer.Close()
			t.Errorf("reply %d %q: dial succeeded", tc.status, tc.reply)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("reply %d %q: dial err = %v, want an error naming %q", tc.status, tc.reply, err, tc.want)
		}
		ln.Close()
		<-done
	}
}

// TestTCPCompressionRoundTrip ships a payload far above compressMin and
// checks it arrives intact with the compression counters moving.
func TestTCPCompressionRoundTrip(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	m := &Metrics{}
	peer, err := Dial("s1", srv.Addr(), m)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if info := peer.WireInfo(); !info.Compression {
		t.Fatalf("default dial did not negotiate compression: %+v", info)
	}
	big := strings.Repeat("compressible payload ", 1024)
	if got := echo(t, peer, "m", big); got != "m:"+big {
		t.Fatalf("big payload mangled (len %d)", len(got))
	}
	raw, wire := m.CompressionBytes()
	if raw == 0 || wire == 0 || wire >= raw {
		t.Fatalf("compression bytes raw=%d wire=%d, want wire < raw", raw, wire)
	}
	if m.CompressedMessages() == 0 {
		t.Fatal("no payload shipped compressed")
	}
	// Tiny payloads stay raw (below compressMin) but still round-trip.
	if got := echo(t, peer, "m", "tiny"); got != "m:tiny" {
		t.Fatalf("resp = %q", got)
	}
}

// TestTCPDeadlinePropagates checks both halves of the deadline contract: the
// client call fails once the budget runs out, and the server-side handler's
// context expires (so the source abandons the work too).
func TestTCPDeadlinePropagates(t *testing.T) {
	handlerCtxExpired := make(chan bool, 1)
	srv, err := Serve("127.0.0.1:0", func(ctx context.Context, codec Codec, method string, body []byte) (any, error) {
		if _, ok := ctx.Deadline(); !ok {
			handlerCtxExpired <- false
			return nil, nil
		}
		select {
		case <-ctx.Done():
			handlerCtxExpired <- true
		case <-time.After(2 * time.Second):
			handlerCtxExpired <- false
		}
		// Reply well after the caller's deadline so the client-side failure
		// is deterministic, not a race against the in-flight response.
		time.Sleep(200 * time.Millisecond)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	peer, err := Dial("s1", srv.Addr(), &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	payload := "x"
	if err := peer.Call(ctx, "m", &payload, nil); err == nil {
		t.Fatal("call past deadline should error")
	}
	select {
	case expired := <-handlerCtxExpired:
		if !expired {
			t.Fatal("handler context did not carry the caller's deadline")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler never observed the request")
	}

	// An already-expired context fails before touching the wire.
	expiredCtx, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if err := peer.Call(expiredCtx, "m", nil, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired ctx = %v, want DeadlineExceeded", err)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := &Metrics{}
			peer, err := Dial("s", srv.Addr(), m)
			if err != nil {
				errs <- err
				return
			}
			defer peer.Close()
			for i := 0; i < 50; i++ {
				payload := "y"
				var resp string
				if err := peer.Call(context.Background(), "x", &payload, &resp); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPServerClosedRejects(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	peer, err := Dial("s", addr, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// The in-flight connection is closed by the server; calls now fail.
	payload := "b"
	if err := peer.Call(context.Background(), "m", &payload, nil); err == nil {
		t.Error("Call after server close should error")
	}
	peer.Close()
}

// stringCodec stands in for the federation's codec, which transport
// cannot import: it carries strings as their raw bytes.
type stringCodec struct{}

func init() { InstallCodec(stringCodec{}) }

func (stringCodec) Name() string { return "test-string/1" }

func (stringCodec) Append(dst []byte, v any) ([]byte, error) {
	switch s := v.(type) {
	case nil:
		return dst, nil
	case *string:
		return append(dst, *s...), nil
	}
	return dst, fmt.Errorf("stringCodec: cannot encode %T", v)
}

func (stringCodec) Decode(data []byte, v any) error {
	switch s := v.(type) {
	case nil:
	case *string:
		*s = string(data)
	default:
		return fmt.Errorf("stringCodec: cannot decode into %T", v)
	}
	return nil
}

// TestInstallCodec: reinstalling the installed codec is a no-op (so
// repeated test runs and init orders never trip it), while a second,
// different codec panics.
func TestInstallCodec(t *testing.T) {
	InstallCodec(stringCodec{})
	if got := wireCodec(); got != (stringCodec{}) {
		t.Fatalf("installed codec = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("installing a second codec did not panic")
		}
	}()
	InstallCodec(otherCodec{})
}

type otherCodec struct{ stringCodec }

func (otherCodec) Name() string { return "test-other/1" }
