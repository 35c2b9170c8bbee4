// Package faults is the pluggable fault-injection substrate under the
// elastic executor: both network fabrics (internal/network) and the
// elastic worker pool (internal/elastic) consult one Injector before
// every block transfer and every worker block boundary, so tests and
// benchmarks can subject a running query to dropped, delayed,
// duplicated or corrupted blocks, severed links, and crashed workers —
// deterministically.
//
// Determinism is the point: every probabilistic verdict is a pure hash
// of (seed, site, identifying fields), never a stateful RNG draw, so a
// verdict does not depend on goroutine interleaving. The same seed and
// the same (link, sequence, attempt) coordinates always yield the same
// verdict, which is what makes the metamorphic correctness harness
// (DESIGN.md §9) reproducible.
//
// A nil *Injector is valid everywhere and injects nothing; call sites
// never need a nil check beyond the methods' own receivers.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config declares the fault mix. All probabilities are per decision
// point (per frame attempt on a link, per block boundary for workers).
type Config struct {
	// Seed drives every verdict hash. Two injectors with equal configs
	// give identical verdicts at identical coordinates.
	Seed int64
	// Drop is the probability a frame attempt is silently lost before
	// reaching the wire.
	Drop float64
	// Dup is the probability a frame attempt is transmitted twice.
	Dup float64
	// Corrupt is the probability a frame attempt's payload is flipped,
	// so the receiver's checksum rejects it.
	Corrupt float64
	// Delay is the maximum injected per-frame delay; the actual delay is
	// a deterministic uniform draw in [0, Delay).
	Delay time.Duration
	// DelayProb is the probability a frame is delayed at all; it
	// defaults to 1 when Delay is set.
	DelayProb float64
	// CrashWorker is the probability an elastic worker crashes at a
	// block boundary (it exits abruptly without draining, as if its
	// thread died; the engine's recovery watchdog re-expands the pool).
	CrashWorker float64
}

// zero reports whether the config injects nothing.
func (c Config) zero() bool {
	return c.Drop == 0 && c.Dup == 0 && c.Corrupt == 0 &&
		c.Delay == 0 && c.CrashWorker == 0
}

// Parse reads the CLI fault spec, a comma-separated key=value list:
//
//	drop=0.01,delay=5ms,dup=0.001,corrupt=0.001,crashworker=0.002,seed=7
//
// Keys: drop, dup, corrupt, crashworker (probabilities in [0,1]),
// delay (Go duration), delayp (probability, default 1 when delay set),
// seed (int64). An empty spec parses to the zero Config.
func Parse(spec string) (Config, error) {
	var cfg Config
	cfg.DelayProb = -1 // sentinel: unset
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return Config{}, fmt.Errorf("faults: bad entry %q (want key=value)", part)
		}
		key, val := strings.ToLower(strings.TrimSpace(kv[0])), strings.TrimSpace(kv[1])
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Config{}, fmt.Errorf("faults: seed=%q: %w", val, err)
			}
			cfg.Seed = n
		case "delay":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return Config{}, fmt.Errorf("faults: delay=%q: want a non-negative duration", val)
			}
			cfg.Delay = d
		case "drop", "dup", "corrupt", "crashworker", "delayp":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return Config{}, fmt.Errorf("faults: %s=%q: want a probability in [0,1]", key, val)
			}
			switch key {
			case "drop":
				cfg.Drop = p
			case "dup":
				cfg.Dup = p
			case "corrupt":
				cfg.Corrupt = p
			case "crashworker":
				cfg.CrashWorker = p
			case "delayp":
				cfg.DelayProb = p
			}
		default:
			return Config{}, fmt.Errorf("faults: unknown key %q (valid: drop, dup, corrupt, delay, delayp, crashworker, seed)", key)
		}
	}
	if cfg.DelayProb < 0 {
		if cfg.Delay > 0 {
			cfg.DelayProb = 1
		} else {
			cfg.DelayProb = 0
		}
	}
	return cfg, nil
}

// String renders the config back into Parse's spec syntax.
func (c Config) String() string {
	var parts []string
	add := func(k string, p float64) {
		if p > 0 {
			parts = append(parts, k+"="+strconv.FormatFloat(p, 'g', -1, 64))
		}
	}
	add("drop", c.Drop)
	add("dup", c.Dup)
	add("corrupt", c.Corrupt)
	if c.Delay > 0 {
		parts = append(parts, "delay="+c.Delay.String())
		if c.DelayProb > 0 && c.DelayProb < 1 {
			add("delayp", c.DelayProb)
		}
	}
	add("crashworker", c.CrashWorker)
	parts = append(parts, "seed="+strconv.FormatInt(c.Seed, 10))
	return strings.Join(parts, ",")
}

// FrameVerdict is the injector's decision for one frame attempt on a
// link. Drop and Corrupt are mutually exclusive (drop wins).
type FrameVerdict struct {
	Drop    bool
	Dup     bool
	Corrupt bool
	Delay   time.Duration
}

// Faulty reports whether the verdict injects anything.
func (v FrameVerdict) Faulty() bool {
	return v.Drop || v.Dup || v.Corrupt || v.Delay > 0
}

// Kind names the dominant injected fault, for telemetry.
func (v FrameVerdict) Kind() string {
	switch {
	case v.Drop:
		return "drop"
	case v.Corrupt:
		return "corrupt"
	case v.Dup:
		return "dup"
	case v.Delay > 0:
		return "delay"
	}
	return ""
}

type link struct{ from, to int }

type crashPlan struct {
	segment     string // "*" matches any segment
	afterBlocks int64
	fired       bool
}

type severPlan struct {
	afterFrames int64
	fired       bool
}

// Injector decides fault verdicts. All methods are safe for concurrent
// use and safe on a nil receiver (nil injects nothing).
type Injector struct {
	cfg Config

	mu          sync.Mutex
	severed     map[link]bool
	crashed     map[int]bool // crashed node ids
	linkFrames  map[link]int64
	severPlans  map[link]*severPlan
	crashPlans  []*crashPlan
	planMatched map[string]bool // segment+block coordinates already consumed
}

// New builds an injector over the config. A nil return never happens;
// use Enabled to test whether it can inject anything probabilistically.
func New(cfg Config) *Injector {
	if cfg.Delay > 0 && cfg.DelayProb == 0 {
		cfg.DelayProb = 1
	}
	return &Injector{
		cfg:         cfg,
		severed:     make(map[link]bool),
		crashed:     make(map[int]bool),
		linkFrames:  make(map[link]int64),
		severPlans:  make(map[link]*severPlan),
		planMatched: make(map[string]bool),
	}
}

// Enabled reports whether the injector exists and could inject faults
// (probabilistic config, or any programmatic plan/severance). Transports
// use it to decide whether to run their recovery protocol.
func (j *Injector) Enabled() bool {
	if j == nil {
		return false
	}
	if !j.cfg.zero() {
		return true
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.severed) > 0 || len(j.crashed) > 0 ||
		len(j.severPlans) > 0 || len(j.crashPlans) > 0
}

// Config returns the injector's configuration.
func (j *Injector) Config() Config {
	if j == nil {
		return Config{}
	}
	return j.cfg
}

// --- link faults -------------------------------------------------------------

// Frame returns the verdict for one attempt at shipping frame seq on
// the from→to link of the given exchange. The verdict is a pure hash of
// the coordinates, so retries of the same seq draw fresh (but
// reproducible) verdicts via attempt. Under the windowed wire protocol
// (DESIGN.md §15) a go-back-N round retransmits every in-flight frame
// of a stream; each frame in the round consults Frame with its own
// incremented attempt, so the coordinate space — and therefore any
// recorded fault schedule — depends on the frames alone, not on how
// they are written.
func (j *Injector) Frame(from, to, exchange int, seq uint64, attempt int) FrameVerdict {
	if j == nil {
		return FrameVerdict{}
	}
	j.mu.Lock()
	l := link{from, to}
	j.linkFrames[l]++
	if p := j.severPlans[l]; p != nil && !p.fired && j.linkFrames[l] > p.afterFrames {
		p.fired = true
		j.severed[l] = true
	}
	j.mu.Unlock()

	var v FrameVerdict
	h := mix(uint64(j.cfg.Seed), uint64(from), uint64(to), uint64(exchange), seq, uint64(attempt))
	if j.cfg.Drop > 0 && u01(mix(h, 'd')) < j.cfg.Drop {
		v.Drop = true
	} else if j.cfg.Corrupt > 0 && u01(mix(h, 'c')) < j.cfg.Corrupt {
		v.Corrupt = true
	}
	if j.cfg.Dup > 0 && u01(mix(h, 'u')) < j.cfg.Dup {
		v.Dup = true
	}
	if j.cfg.Delay > 0 && u01(mix(h, 'p')) < j.cfg.DelayProb {
		v.Delay = time.Duration(u01(mix(h, 't')) * float64(j.cfg.Delay))
	}
	return v
}

// SeverLink permanently severs the directed from→to link: subsequent
// sends fail immediately, as if the cable were cut.
func (j *Injector) SeverLink(from, to int) {
	j.mu.Lock()
	j.severed[link{from, to}] = true
	j.mu.Unlock()
}

// PlanSever severs the from→to link after afterFrames frame attempts
// have crossed it — a deterministic mid-stream severance.
func (j *Injector) PlanSever(from, to int, afterFrames int64) {
	j.mu.Lock()
	j.severPlans[link{from, to}] = &severPlan{afterFrames: afterFrames}
	j.mu.Unlock()
}

// HealLink restores a severed link (and clears any sever plan on it).
func (j *Injector) HealLink(from, to int) {
	j.mu.Lock()
	delete(j.severed, link{from, to})
	delete(j.severPlans, link{from, to})
	j.mu.Unlock()
}

// Severed reports whether the directed from→to link is severed, either
// directly or because either endpoint node crashed.
func (j *Injector) Severed(from, to int) bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.severed[link{from, to}] || j.crashed[from] || j.crashed[to]
}

// --- node faults -------------------------------------------------------------

// CrashNode marks a node as crashed: every link touching it is severed
// and NodeCrashed reports true. The in-process "nodes" share one OS
// process, so a crash is modeled as total network isolation.
func (j *Injector) CrashNode(node int) {
	j.mu.Lock()
	j.crashed[node] = true
	j.mu.Unlock()
}

// NodeCrashed reports whether the node was crashed.
func (j *Injector) NodeCrashed(node int) bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.crashed[node]
}

// --- worker faults -----------------------------------------------------------

// PlanWorkerCrash schedules exactly one worker crash: the first worker
// of the named segment ("*" matches any segment) to reach afterBlocks
// processed blocks crashes at that block boundary. afterBlocks 0
// crashes a worker before it processes anything — the "between phases"
// point of the recovery tests.
func (j *Injector) PlanWorkerCrash(segment string, afterBlocks int64) {
	j.mu.Lock()
	j.crashPlans = append(j.crashPlans, &crashPlan{segment: segment, afterBlocks: afterBlocks})
	j.mu.Unlock()
}

// WorkerCrash reports whether the worker of the given segment should
// crash at this block boundary (blocks = blocks it has processed so
// far). Scheduled plans fire first (each exactly once); otherwise the
// CrashWorker probability is drawn deterministically from the
// coordinates.
func (j *Injector) WorkerCrash(node int, segment string, worker int, blocks int64) bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	for _, p := range j.crashPlans {
		if p.fired || (p.segment != "*" && p.segment != segment) || blocks < p.afterBlocks {
			continue
		}
		p.fired = true
		j.mu.Unlock()
		return true
	}
	j.mu.Unlock()
	if j.cfg.CrashWorker <= 0 {
		return false
	}
	h := mix(uint64(j.cfg.Seed), 'w', uint64(node), hashString(segment), uint64(worker), uint64(blocks))
	return u01(h) < j.cfg.CrashWorker
}

// --- introspection -----------------------------------------------------------

// Summary renders the injector state for diagnostics.
func (j *Injector) Summary() string {
	if j == nil {
		return "faults: disabled"
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var severed []string
	for l, v := range j.severed {
		if v {
			severed = append(severed, fmt.Sprintf("%d->%d", l.from, l.to))
		}
	}
	sort.Strings(severed)
	return fmt.Sprintf("faults{%s, severed: [%s], crashed nodes: %d, crash plans: %d}",
		j.cfg, strings.Join(severed, " "), len(j.crashed), len(j.crashPlans))
}

// --- process-wide default ----------------------------------------------------

var defaultInjector atomic.Pointer[Injector]

// SetDefault installs the process default injector, consulted by engine
// clusters whose Config.Faults is nil — how `claims -faults` and
// `claims-node -faults` reach their clusters without threading an
// injector through every constructor.
func SetDefault(j *Injector) { defaultInjector.Store(j) }

// Default returns the process default injector, or nil.
func Default() *Injector { return defaultInjector.Load() }

// --- deterministic hashing ---------------------------------------------------

// mix folds the values into one 64-bit hash with a splitmix64-style
// finalizer per word. It is the only source of randomness in the
// package.
func mix(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

func hashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// u01 maps a hash to [0, 1).
func u01(h uint64) float64 { return float64(h>>11) / float64(1<<53) }
