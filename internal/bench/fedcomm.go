// The fedcomm experiment measures the federation protocol itself: bytes
// and round-trips per multi-source OJSP/CJSP query under the stateless
// per-round-broadcast protocol versus the session protocol (delta-shipped
// coverage rounds, two-phase winner fetch). Every CJSP query is run under
// both protocols and the results must be identical — the experiment errors
// out on any parity violation, so the snapshot can only ever show a
// speedup that preserves answers. Results snapshot to BENCH_fedcomm.json:
//
//	ditsbench -exp fedcomm -baseline   # run and snapshot
//	ditsbench -exp fedcomm -compare    # run and diff against the snapshot
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"time"

	"dits/internal/federation"
	"dits/internal/transport"
)

// FedcommSchema identifies the snapshot format. v2 keys every entry by
// the wire codec the peers spoke as well.
const FedcommSchema = "dits-bench-fedcomm/2"

// FedcommEntry is one protocol × query-type measurement.
type FedcommEntry struct {
	Query         string                           `json:"query"`    // OJSP or CJSP
	Protocol      string                           `json:"protocol"` // stateless or session
	Codec         string                           `json:"codec"`    // wire codec the peers spoke
	Queries       int                              `json:"queries"`
	K             int                              `json:"k"`
	Delta         float64                          `json:"delta,omitempty"`
	Bytes         int64                            `json:"bytes"`
	BytesSent     int64                            `json:"bytes_sent"`
	BytesReceived int64                            `json:"bytes_received"`
	Messages      int64                            `json:"messages"`
	BytesPerQuery float64                          `json:"bytes_per_query"`
	MsgsPerQuery  float64                          `json:"messages_per_query"`
	PerMethod     map[string]transport.MethodStats `json:"per_method,omitempty"`
}

// FedcommReport is the machine-readable result of one fedcomm run.
type FedcommReport struct {
	Schema    string         `json:"schema"`
	Generated string         `json:"generated,omitempty"`
	Theta     int            `json:"theta"`
	Seed      int64          `json:"seed"`
	Scale     float64        `json:"scale"`
	Results   []FedcommEntry `json:"results"`
	// CJSPBytesReduction is stateless bytes-per-query divided by session
	// bytes-per-query — the headline number of the session protocol.
	CJSPBytesReduction float64 `json:"cjsp_bytes_reduction"`
	// CJSPMsgsReduction is the same ratio for round-trips.
	CJSPMsgsReduction float64 `json:"cjsp_msgs_reduction"`
}

// fedcommEntry snapshots a center's metrics into one entry.
func fedcommEntry(query, protocol, codec string, q, k int, delta float64, m *transport.Metrics) FedcommEntry {
	e := FedcommEntry{
		Query: query, Protocol: protocol, Codec: codec, Queries: q, K: k, Delta: delta,
		Bytes:         m.Bytes(),
		BytesSent:     m.BytesSent(),
		BytesReceived: m.BytesReceived(),
		Messages:      m.Messages(),
		PerMethod:     m.PerMethod(),
	}
	if q > 0 {
		e.BytesPerQuery = float64(e.Bytes) / float64(q)
		e.MsgsPerQuery = float64(e.Messages) / float64(q)
	}
	return e
}

// RunFedcomm executes the fedcomm experiment, returning the
// machine-readable report and the printable tables. It fails on any
// CJSP result divergence between the two protocols.
func RunFedcomm(cfg Config) (FedcommReport, []Table, error) {
	report := FedcommReport{
		Schema: FedcommSchema, Theta: cfg.Theta, Seed: cfg.Seed, Scale: cfg.Scale,
	}
	servers, g, sds := buildSourceServers(cfg)
	queries := federationQueries(sds, g, cfg.Q, cfg.Seed)

	stateless := newFederation(g, servers, federation.Options{GlobalFilter: true, ClipQuery: true})
	session := newFederation(g, servers, federation.DefaultOptions())
	codec := federation.BinaryCodecName

	// OJSP: a single fan-out either way; measured for completeness so the
	// snapshot covers the full protocol surface.
	var ojspWant []any // answers recorded under the stateless protocol
	for _, p := range []struct {
		name   string
		center *federation.Center
	}{{"stateless", stateless}, {"session", session}} {
		p.center.Metrics.Reset()
		for i, q := range queries {
			rs, err := p.center.OverlapSearch(context.Background(), q, cfg.K)
			if err != nil {
				return report, nil, fmt.Errorf("bench: fedcomm OJSP (%s): %w", p.name, err)
			}
			if p.name == "stateless" {
				ojspWant = append(ojspWant, rs)
			} else if !reflect.DeepEqual(any(rs), ojspWant[i]) {
				return report, nil, fmt.Errorf("bench: fedcomm OJSP divergence on query %d (%s)", i, p.name)
			}
		}
		report.Results = append(report.Results,
			fedcommEntry("OJSP", p.name, codec, len(queries), cfg.K, 0, p.center.Metrics))
	}

	// CJSP: run every query under both protocols with enforced parity.
	stateless.Metrics.Reset()
	session.Metrics.Reset()
	for i, q := range queries {
		a, err := stateless.CoverageSearch(context.Background(), q, cfg.Delta, cfg.K)
		if err != nil {
			return report, nil, fmt.Errorf("bench: fedcomm CJSP (stateless): %w", err)
		}
		b, err := session.CoverageSearch(context.Background(), q, cfg.Delta, cfg.K)
		if err != nil {
			return report, nil, fmt.Errorf("bench: fedcomm CJSP (session): %w", err)
		}
		if !reflect.DeepEqual(a, b) {
			return report, nil, fmt.Errorf(
				"bench: fedcomm parity violation on query %d: stateless %+v, session %+v", i, a, b)
		}
	}
	st := fedcommEntry("CJSP", "stateless", codec, len(queries), cfg.K, cfg.Delta, stateless.Metrics)
	se := fedcommEntry("CJSP", "session", codec, len(queries), cfg.K, cfg.Delta, session.Metrics)
	report.Results = append(report.Results, st, se)
	if se.BytesPerQuery > 0 {
		report.CJSPBytesReduction = st.BytesPerQuery / se.BytesPerQuery
	}
	if se.MsgsPerQuery > 0 {
		report.CJSPMsgsReduction = st.MsgsPerQuery / se.MsgsPerQuery
	}

	t := Table{
		ID:    "fedcomm",
		Title: "Federation protocol: stateless broadcast vs session",
		Header: []string{
			"query", "protocol", "codec", "q", "k", "bytes/query", "msgs/query", "bytes total",
		},
		Notes: []string{
			fmt.Sprintf("CJSP bytes reduction: %.2fx, round-trip reduction: %.2fx (k=%d, δ=%v, parity enforced).",
				report.CJSPBytesReduction, report.CJSPMsgsReduction, cfg.K, cfg.Delta),
			"Parity: identical answers required across both protocols.",
		},
	}
	for _, e := range report.Results {
		t.Rows = append(t.Rows, []string{
			e.Query, e.Protocol, e.Codec, itoa(e.Queries), itoa(e.K),
			fmt.Sprintf("%.0f", e.BytesPerQuery),
			fmt.Sprintf("%.1f", e.MsgsPerQuery),
			i64toa(e.Bytes),
		})
	}
	return report, []Table{t}, nil
}

// WriteFedcomm stamps and writes the report as indented JSON.
func WriteFedcomm(path string, r FedcommReport) error {
	r.Generated = time.Now().UTC().Format(time.RFC3339)
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFedcomm loads a snapshot written by WriteFedcomm.
func ReadFedcomm(path string) (FedcommReport, error) {
	var r FedcommReport
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if r.Schema != FedcommSchema {
		return r, fmt.Errorf("bench: %s has schema %q, want %q", path, r.Schema, FedcommSchema)
	}
	return r, nil
}

// CompareFedcomm diffs a current run against a snapshot: per (query,
// protocol, codec) triple, the snapshot and current bytes per query and
// the drift — the regression signal for protocol and codec changes.
func CompareFedcomm(base, cur FedcommReport) Table {
	t := Table{
		ID:    "fedcomm-compare",
		Title: "Federation protocol vs baseline snapshot" + fedcommGeneratedSuffix(base),
		Header: []string{
			"query", "protocol", "codec", "base bytes/q", "now bytes/q", "drift", "base msgs/q", "now msgs/q",
		},
		Notes: []string{
			"drift = now/base bytes per query: < 1.00x ships fewer bytes than the snapshot.",
			fmt.Sprintf("CJSP bytes reduction now %.2fx (snapshot %.2fx).",
				cur.CJSPBytesReduction, base.CJSPBytesReduction),
		},
	}
	baseBy := make(map[string]FedcommEntry, len(base.Results))
	for _, e := range base.Results {
		baseBy[e.Query+"|"+e.Protocol+"|"+e.Codec] = e
	}
	for _, e := range cur.Results {
		b, ok := baseBy[e.Query+"|"+e.Protocol+"|"+e.Codec]
		if !ok {
			t.Notes = append(t.Notes, fmt.Sprintf("no baseline entry for %s/%s/%s", e.Query, e.Protocol, e.Codec))
			continue
		}
		drift := "-"
		if b.BytesPerQuery > 0 {
			drift = fmt.Sprintf("%.2fx", e.BytesPerQuery/b.BytesPerQuery)
		}
		t.Rows = append(t.Rows, []string{
			e.Query, e.Protocol, e.Codec,
			fmt.Sprintf("%.0f", b.BytesPerQuery),
			fmt.Sprintf("%.0f", e.BytesPerQuery),
			drift,
			fmt.Sprintf("%.1f", b.MsgsPerQuery),
			fmt.Sprintf("%.1f", e.MsgsPerQuery),
		})
	}
	return t
}

func fedcommGeneratedSuffix(base FedcommReport) string {
	if base.Generated == "" {
		return ""
	}
	return " (" + base.Generated + ")"
}

// Fedcomm adapts RunFedcomm to the experiment registry (plain -exp fedcomm
// runs without snapshotting).
func Fedcomm(cfg Config) []Table {
	_, tables, err := RunFedcomm(cfg)
	if err != nil {
		panic(err)
	}
	return tables
}
