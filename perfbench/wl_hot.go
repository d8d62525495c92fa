package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"tpminer/internal/server"
)

const (
	hotSpecs  = 32      // warmed working set
	hotOpsLen = 1 << 15 // per-client op sequence, cycled
)

// The working set is drawn at the dataset's fixed seed, so every run
// serves the same 32 specs with the same body sizes and --seed drives
// only the clients' request sequences. With a seeded working set, one
// seed's most popular spec returns 1 KB and another's 40 KB, and the
// run-to-run spread measures that draw rather than the program.
const hotSetSeed = datasetSeed

// hotOp is one request of mine_hot: a mine of one spec of the working
// set, or a dataset GET, optionally conditional (If-None-Match with the
// warmed ETag → 304).
type hotOp struct {
	get  bool
	spec int // index into the working set; Zipf makes low ones popular
	inm  bool
}

// hotOps draws one client's request sequence: Zipf popularity over the
// working set, about 1/10 dataset GETs and 1/3 conditional requests.
func hotOps(seed int64, client int) []hotOp {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)))
	zipf := rand.NewZipf(rng, 1.1, 1, hotSpecs-1)
	ops := make([]hotOp, hotOpsLen)
	for i := range ops {
		ops[i] = hotOp{get: rng.Intn(10) == 0, spec: int(zipf.Uint64()), inm: rng.Intn(3) == 0}
	}
	return ops
}

// hotRef is what every response of mine_hot must equal: the warmed hit
// bodies and ETags, and the dataset summary.
type hotRef struct {
	body    [][]byte
	etag    []string
	decoded []server.MineResponse
	dsBody  []byte
	dsETag  string
	summary server.DatasetSummary
}

// runHot drives mine_hot: two closed-loop clients over a warmed working
// set of 32 specs, so the miner does almost no work and the server's
// request path, the api layer, the cache and JSON writing dominate.
func runHot(b *bench) error {
	ds, err := makeDataset()
	if err != nil {
		return err
	}
	specs := specStream(hotSetSeed, hotSpecs)

	var (
		d     *deployment
		ref   *hotRef
		setup setupTimer
	)
	for setup.more() {
		if d != nil {
			d.close()
		}
		err := setup.time(func() error {
			var err error
			if d, err = deploy(deployOptions{}); err != nil {
				return err
			}
			if _, err = d.must("PUT", "/v1/datasets/"+datasetName, "text/csv", ds.csv, 201); err != nil {
				return err
			}
			ref, err = warmHot(d, specs)
			return err
		})
		if err != nil {
			if d != nil {
				d.close()
			}
			return fmt.Errorf("set-up: %w", err)
		}
	}
	defer d.close()

	h := &hotRun{b: b, d: d, specs: specs, ref: ref, ops: [2][]hotOp{hotOps(b.seed, 0), hotOps(b.seed, 1)}}
	plain := h.phase(nil)
	b.recordE2E(setup, plain, 90, 2*time.Second)
	if b.trace {
		before, err := d.scrape()
		if err != nil {
			return err
		}
		t := newTracer()
		traced := h.phase(t)
		after, err := d.scrape()
		if err != nil {
			return err
		}
		b.recordLayers(t, promDiff{before, after}, traced.ops())
		b.recordOverhead(plain, traced, t.count())
		if err := t.write(b.spans); err != nil {
			return err
		}
	}
	// The warmed bodies every hit was compared with must themselves equal
	// the serial miner's results (the stream's correctness sample and the
	// most popular spec, outside the timed window).
	for i, s := range specs {
		if s.check || i == 0 {
			if err := checkMineBody(ds.db, s.spec, ref.body[i]); err != nil {
				b.mismatch("warmed spec %d %s: %v", i, s.body, err)
			}
		}
	}
	b.recordHeap(d.close)
	return nil
}

// warmHot mines every spec of the working set twice — a miss, then a
// hit — and keeps the hit body and ETag, plus the dataset summary.
func warmHot(d *deployment, specs []mineReq) (*hotRef, error) {
	ref := &hotRef{
		body:    make([][]byte, len(specs)),
		etag:    make([]string, len(specs)),
		decoded: make([]server.MineResponse, len(specs)),
	}
	path := "/v1/datasets/" + datasetName + "/mine"
	for i, s := range specs {
		if _, err := d.must("POST", path, "application/json", s.body, 200); err != nil {
			return nil, err
		}
		r, err := d.call(context.Background(), "POST", path, "application/json", s.body, nil, time.Now())
		if err != nil {
			return nil, err
		}
		if r.status != 200 || r.header.Get("X-Cache") != "hit" || r.header.Get("ETag") == "" {
			return nil, fmt.Errorf("warm spec %d: status %d, X-Cache %q", i, r.status, r.header.Get("X-Cache"))
		}
		ref.body[i], ref.etag[i] = r.body, r.header.Get("ETag")
		if err := json.Unmarshal(r.body, &ref.decoded[i]); err != nil {
			return nil, err
		}
	}
	r, err := d.call(context.Background(), "GET", "/v1/datasets/"+datasetName, "", nil, nil, time.Now())
	if err != nil {
		return nil, err
	}
	if r.status != 200 || r.header.Get("ETag") == "" {
		return nil, fmt.Errorf("dataset GET: status %d", r.status)
	}
	ref.dsBody, ref.dsETag = r.body, r.header.Get("ETag")
	return ref, json.Unmarshal(r.body, &ref.summary)
}

type hotRun struct {
	b     *bench
	d     *deployment
	specs []mineReq
	ref   *hotRef
	ops   [2][]hotOp
	pos   [2]int          // next op per client; each client touches only its own
	buf   [2]bytes.Buffer // per-client response buffer
}

func (h *hotRun) phase(t *tracer) *phase {
	p := &phase{}
	mine := "/v1/datasets/" + datasetName + "/mine"
	get := "/v1/datasets/" + datasetName
	closedLoop(p, 2, h.b.dur, func(c int) bool {
		op := h.ops[c][h.pos[c]%hotOpsLen]
		h.pos[c]++
		idx := op.spec
		var hdr map[string]string
		etag, want := h.ref.etag[idx], h.ref.body[idx]
		if op.get {
			etag, want = h.ref.dsETag, h.ref.dsBody
		}
		if op.inm {
			hdr = map[string]string{"If-None-Match": etag}
		}
		h.b.attempted.Add(1)
		start := time.Now()
		var (
			r   reply
			err error
		)
		if op.get {
			r, err = h.d.callInto(context.Background(), &h.buf[c], "GET", get, "", nil, hdr, start)
		} else {
			r, err = h.d.callInto(context.Background(), &h.buf[c], "POST", mine, "application/json", h.specs[idx].body, hdr, start)
		}
		if err != nil {
			h.b.fail("hot request: %v", err)
			return true
		}
		switch {
		case op.inm && r.status == 304:
			if r.header.Get("ETag") != etag {
				h.b.mismatch("304 carried ETag %q, want %q", r.header.Get("ETag"), etag)
			}
		case !op.inm && r.status == 200:
			if !bytes.Equal(r.body, want) {
				h.b.mismatch("hot body of op %+v differs from its warmed body", op)
			}
		default:
			h.b.fail("hot op %+v: status %d: %s", op, r.status, truncate(r.body))
			return true
		}
		p.add(start, r.done)
		if t != nil {
			h.replay(t, op.get, idx, r, start)
		}
		return true
	})
	return p
}

// replay re-runs the layers a hit reaches: the api layer for every
// mine, and the JSON rendering of every 200.
func (h *hotRun) replay(t *tracer, get bool, idx int, r reply, start time.Time) {
	trace := t.newTrace()
	t.spanAt(trace, 0, "request", start, start.Add(r.done))
	rs := t.begin(trace, 0, "replay")
	var onPath time.Duration
	if !get {
		_, d, err := replaySpec(t, trace, rs.s.id, h.specs[idx].body)
		if err != nil {
			h.b.fail("replay: %v", err)
		}
		onPath += d
	}
	if r.status == 200 {
		var v any = h.ref.decoded[idx]
		if get {
			v = h.ref.summary
		}
		onPath += t.timed(trace, rs.s.id, "json.Marshal", func() { _, _ = json.Marshal(v) })
	}
	rs.end()
	t.sample("server.self_ms", ms(r.done-onPath))
}
