package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/client"
)

// recorder keeps one connection's outcome: a latency sample per
// completed statement, by statement id, and the counts.
type recorder struct {
	samples   [][]uint32 // nanoseconds, per workload.ids index, the whole window's
	starts    [][]int    // per id, where each round starts in samples
	attempted int
	failed    int // errors, refusals and checksum mismatches
}

// newRecorders allocates every connection's sample arrays up front at a
// fixed capacity, so the harness's own memory is a known constant that
// heap_live_mb can subtract. Samples beyond the capacity are dropped
// (the counts still advance).
func newRecorders(w *workload, capPerID int) (recs []*recorder, bytes int64) {
	for c := 0; c < w.conns; c++ {
		r := &recorder{samples: make([][]uint32, len(w.ids)), starts: make([][]int, len(w.ids))}
		for i := range r.samples {
			r.samples[i] = make([]uint32, 0, capPerID)
			bytes += int64(capPerID) * 4
		}
		recs = append(recs, r)
	}
	return recs, bytes
}

// nextRound starts a round: samples recorded from now on are its.
func (r *recorder) nextRound() {
	for i := range r.samples {
		r.starts[i] = append(r.starts[i], len(r.samples[i]))
	}
}

// round returns the samples of statement id recorded in round n.
func (r *recorder) round(id, n int) []uint32 {
	from, to := r.starts[id][n], len(r.samples[id])
	if n+1 < len(r.starts[id]) {
		to = r.starts[id][n+1]
	}
	return r.samples[id][from:to]
}

func (r *recorder) add(id int, d time.Duration, ok bool) {
	r.attempted++
	if !ok {
		r.failed++
		return
	}
	if s := r.samples[id]; len(s) < cap(s) {
		ns := d.Nanoseconds()
		if ns > math.MaxUint32 {
			ns = math.MaxUint32
		}
		r.samples[id] = append(s, uint32(ns))
	}
}

// execute sends one statement over the socket, streams the reply and
// checks it. firstRow, when non-nil, receives the time the first row
// (or the end of an empty result) was available to the caller.
func (e *env) execute(c *client.Conn, s *stmt, firstRow *time.Time) (bool, error) {
	var rows *client.Rows
	var err error
	if e.w.prepared {
		rows, err = c.Execute("lookup", s.args...)
	} else {
		rows, err = c.Query(s.text)
	}
	if err != nil {
		return false, err
	}
	if rows == nil {
		return false, fmt.Errorf("no result set for %q", s.text)
	}
	var got check
	for rows.Next() {
		if got.rows == 0 && firstRow != nil {
			*firstRow = time.Now()
		}
		got.addRow(rows.Row())
	}
	if got.rows == 0 && firstRow != nil {
		*firstRow = time.Now()
	}
	if err := rows.Close(); err != nil {
		return false, err
	}
	return got.matches(s.want) && int64(rows.Total()) == s.want.rows, nil
}

// maxConsecutiveErrors aborts a connection's loop: a broken connection
// fails every later call at once, which would otherwise spin.
const maxConsecutiveErrors = 20

// driveRound runs every connection's closed loop for dur: a connection
// sends its next statement when the previous reply is complete and
// checked, and finishes the statement in flight at the deadline. It
// returns correct statements per second, summed over connections, each
// over the time that connection was active. tr, when non-nil, samples
// statements for spans and the in-process replay; the time a connection
// spends replaying is the harness's and is taken out of its active time.
func (e *env) driveRound(ctx context.Context, streams []func() *stmt, recs []*recorder, dur time.Duration, tr *tracedRun) (float64, error) {
	var wg sync.WaitGroup
	rates := make([]float64, len(e.conns))
	errs := make([]error, len(e.conns))
	for i := range e.conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, next, rec := e.conns[i], streams[i], recs[i]
			start := time.Now()
			deadline := start.Add(dur)
			correct, consecutive := 0, 0
			end := start
			var replaying time.Duration
			for n := 0; ctx.Err() == nil; n++ {
				s := next()
				var ok bool
				var err error
				t0 := time.Now()
				if tr != nil && n%e.w.traceEvery == 0 {
					var replay time.Duration
					ok, err, end, replay = tr.executeTraced(i, c, s, t0)
					replaying += replay
				} else {
					ok, err = e.execute(c, s, nil)
					end = time.Now()
				}
				rec.add(s.id, end.Sub(t0), ok)
				if err != nil {
					if consecutive++; consecutive >= maxConsecutiveErrors {
						errs[i] = fmt.Errorf("connection %d: %d statements in a row failed, last: %w", i, consecutive, err)
						return
					}
				} else {
					consecutive = 0
				}
				if ok {
					correct++
				}
				if end.After(deadline) {
					break
				}
			}
			if active := end.Sub(start) - replaying; active > 0 {
				rates[i] = float64(correct) / active.Seconds()
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	var total float64
	for _, r := range rates {
		total += r
	}
	return total, nil
}

// pooled pools every connection's samples of one statement id over the
// given rounds.
func pooled(recs []*recorder, id int, rounds []int) []uint32 {
	var out []uint32
	for _, r := range recs {
		for _, n := range rounds {
			out = append(out, r.round(id, n)...)
		}
	}
	return out
}

func counts(recs []*recorder) (attempted, failed int) {
	for _, r := range recs {
		attempted += r.attempted
		failed += r.failed
	}
	return
}
