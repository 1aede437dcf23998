package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Op is the index of
// the op the call served (-1 when the caller cannot tell, as for
// server-side handler spans); Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced passes pay one nil check per call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// forOp returns the tracer op i records into: every other op is left
// untraced, so a traced pass also measures what tracing costs, against
// ops run under the same host conditions.
func (t *tracer) forOp(i int) *tracer {
	if i%2 == 1 {
		return nil
	}
	return t
}

// spanHandle is an open span; end closes and records it.
type spanHandle struct {
	t      *tracer
	id     int64
	parent int64
	op     int
	name   string
	start  int64
}

// begin opens a span. The id is reserved up front so children can name
// their parent before it ends.
func (t *tracer) begin(name string, op int, parent int64) spanHandle {
	if t == nil {
		return spanHandle{}
	}
	t.mu.Lock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id}) // placeholder, filled by end
	t.mu.Unlock()
	return spanHandle{t: t, id: id, parent: parent, op: op, name: name, start: int64(time.Since(t.epoch))}
}

func (h spanHandle) end() {
	if h.t == nil {
		return
	}
	end := int64(time.Since(h.t.epoch))
	h.t.mu.Lock()
	h.t.spans[h.id-1] = span{ID: h.id, Parent: h.parent, Op: h.op, Name: h.name, Start: h.start, End: end}
	h.t.mu.Unlock()
}

// record adds an already-timed root span that serves no known op (the
// handler wrapper times server-side calls itself).
func (t *tracer) record(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Op: -1, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

// layerStat is one row of the self-time table.
type layerStat struct {
	Name   string
	Calls  int
	Total  time.Duration
	Self   time.Duration
	MeanMs float64
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of its interval its children cover.
func (t *tracer) selfTimes() map[string]*layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]*span)
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*layerStat)
	for i := range t.spans {
		s := &t.spans[i]
		st := out[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name}
			out[s.Name] = st
		}
		st.Calls++
		st.Total += time.Duration(s.dur())
		st.Self += time.Duration(s.dur() - covered(s, children[s.ID]))
	}
	for _, st := range out {
		st.MeanMs = ms(st.Total) / float64(st.Calls)
	}
	return out
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent *span, kids []*span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, curA, curB int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			sum += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		sum += curB - curA
	}
	return sum
}

// writeTable prints the per-layer self-time table, largest self time
// first, with each row's share of the summed root (op) span time.
func writeTable(w io.Writer, title string, stats map[string]*layerStat, opTotal time.Duration) {
	rows := make([]*layerStat, 0, len(stats))
	for _, st := range stats {
		rows = append(rows, st)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Self > rows[j].Self })
	fmt.Fprintf(w, "%s\n%-26s %8s %12s %12s %10s %7s\n", title, "span", "calls", "total_ms", "self_ms", "mean_ms", "self%")
	for _, r := range rows {
		share := 0.0
		if opTotal > 0 {
			share = 100 * r.Self.Seconds() / opTotal.Seconds()
		}
		fmt.Fprintf(w, "%-26s %8d %12.1f %12.1f %10.3f %6.1f%%\n", r.Name, r.Calls, ms(r.Total), ms(r.Self), r.MeanMs, share)
	}
}

// dump writes every span as one JSON line.
func (t *tracer) dump(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
