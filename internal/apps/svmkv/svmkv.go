// Package svmkv is a sharded in-memory KV/page-cache server workload on
// the SVM API — the repo's first request-serving (non-SPLASH) app. N
// simulated server processors own key shards living in SVM pages;
// per-shard open-loop client streams issue GET/PUT/INCR requests with
// Zipf-skewed keys and bursty deterministic arrival times, driving page
// faults, diffs, locks, and cross-shard page migration exactly as the
// protocol ladder sees them. Per-request enqueue→completion virtual
// time lands in the Ctx latency histogram, so a run reports throughput
// and p50/p99/p999 tails instead of one speedup number.
//
// Determinism contract (the repo's core invariant): the full request
// schedule — arrival times, keys, ops, values — is precomputed in New
// as a pure function of Params (splitmix64 streams, no global rand) and
// is read-only during Run, so it is safe to share across LPs and across
// the parallel/sequential runs of a validation pair. Requests carry a
// global index; every access to a given shard is made by that shard's
// current owner in ascending index order, in both the parallel run
// (each owner walks its shards' subsequence in order) and the
// sequential reference (one processor walks all requests in order).
// Last-PUT-wins bytes, the order-dependent per-shard checksum fold, and
// the lock-protected commutative INCR counters therefore all reach
// byte-identical final state, and exact byte validation holds.
//
// Shard ownership rotates every epoch — owner(s, e) = (s + e) mod P —
// with a barrier at each epoch boundary. The barrier is both the HLRC
// coherence point for the handoff and a deterministic cross-epoch
// ordering fence; the rotation forces every shard's pages (store slab,
// checksum word) to migrate between nodes mid-run, the page-cache
// churn a real serving tier sees on resharding.
package svmkv

import (
	"math"

	"genima/internal/app"
	"genima/internal/memory"
	"genima/internal/rng"
	"genima/internal/sim"
)

// Op is one request's operation.
type Op uint8

// Request operations: point read, point write, hot-counter increment.
const (
	Get Op = iota
	Put
	Incr
)

// Params configures one svmkv instance. All fields must be positive
// (fractions non-negative, summing to ≤ 1).
type Params struct {
	Shards   int // key shards; each shard's slab is page-aligned
	Keys     int // distinct keys, striped over shards (key k → shard k mod Shards)
	Requests int // total requests across the run
	Epochs   int // shard-ownership rotation epochs (barrier at each boundary)
	// ValWords is the value size in 8-byte words (a 64-byte value is 8).
	ValWords int
	// MeanGapNs is the mean request interarrival gap in virtual ns: the
	// open-loop offered load is Requests arriving at ~1/MeanGapNs req/ns
	// regardless of how fast the servers drain them.
	MeanGapNs float64
	// Zipf is the key-popularity skew exponent (0 = uniform; web-style
	// skew is ~0.99).
	Zipf float64
	// PutFrac and IncrFrac split the op mix; the rest are GETs.
	PutFrac, IncrFrac float64
	Seed              uint64
}

// DefaultParams returns the registry configurations: a sub-second test
// size (integration tests, smoke targets, soak rotation) and the
// benchmark size the `-exp serve` sweep scales its load levels from.
func DefaultParams(bench bool) Params {
	// MeanGapNs 6000 offers ~167 kreq/s — just past the fastest rung's
	// drain rate (~125 kreq/s on the default cluster), so the registry
	// default is the "heavy" (saturating) load level; the serve sweep's
	// "moderate" level scales the gap up to sit below capacity.
	if bench {
		return Params{
			Shards: 64, Keys: 4096, Requests: 24000, Epochs: 6,
			ValWords: 8, MeanGapNs: 6000, Zipf: 0.99,
			PutFrac: 0.3, IncrFrac: 0.1, Seed: 1,
		}
	}
	return Params{
		Shards: 64, Keys: 512, Requests: 1536, Epochs: 4,
		ValWords: 8, MeanGapNs: 6000, Zipf: 0.99,
		PutFrac: 0.3, IncrFrac: 0.1, Seed: 1,
	}
}

// lockBase spaces svmkv's counter locks away from other apps' lock ids
// (volrend uses 9000+).
const lockBase = 11000

// numCounters is the hot-counter set size: small enough that INCRs
// contend, large enough to spread across a few lock homes.
const numCounters = 8

// request is one precomputed schedule entry.
type request struct {
	arr sim.Time // absolute arrival (enqueue) time
	key int32
	op  Op
}

// App is one svmkv instance: immutable params + precomputed schedule.
type App struct {
	p     Params
	sched []request
	// epochStart[e] is the first request index of epoch e (epoch e covers
	// [epochStart[e], epochStart[e+1])); len = Epochs+1.
	epochStart []int
	slotsPer   int // key slots per shard
	shardPages int // pages per shard slab
}

// New builds the instance and its full deterministic request schedule.
func New(p Params) *App {
	if p.Shards < 1 || p.Keys < 1 || p.Requests < 1 || p.Epochs < 1 ||
		p.ValWords < 1 || p.MeanGapNs <= 0 {
		panic("svmkv: all size params must be positive")
	}
	if p.PutFrac < 0 || p.IncrFrac < 0 || p.PutFrac+p.IncrFrac > 1 {
		panic("svmkv: bad op mix")
	}
	a := &App{p: p, slotsPer: (p.Keys + p.Shards - 1) / p.Shards}

	// Zipf CDF over key ranks: weight(k) = 1/(k+1)^Zipf. Key id == rank,
	// so key 0 is hottest; striping (key mod Shards) spreads the hot
	// head across shards.
	cdf := make([]float64, p.Keys)
	var total float64
	for k := 0; k < p.Keys; k++ {
		total += 1 / math.Pow(float64(k+1), p.Zipf)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}

	// Independent streams per decision class, so changing the op mix
	// never perturbs the key sequence and vice versa.
	arrR := rng.Derive(p.Seed, 0, 'a')
	keyR := rng.Derive(p.Seed, 1, 'k')
	opR := rng.Derive(p.Seed, 2, 'o')

	a.sched = make([]request, p.Requests)
	var now sim.Time
	for i := range a.sched {
		// Bursty open-loop arrivals: exponential gaps whose mean swings
		// between 0.4× (burst) and 1.6× (lull) of MeanGapNs on a
		// 256-request square wave — offered load is independent of
		// service rate by construction.
		phase := 1.6
		if (i/256)%2 == 0 {
			phase = 0.4
		}
		gap := -math.Log(1-arrR.Float()) * p.MeanGapNs * phase
		now += sim.Time(gap) + 1
		a.sched[i].arr = now

		u := keyR.Float()
		lo, hi := 0, p.Keys-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		a.sched[i].key = int32(lo)

		switch v := opR.Float(); {
		case v < p.PutFrac:
			a.sched[i].op = Put
		case v < p.PutFrac+p.IncrFrac:
			a.sched[i].op = Incr
		default:
			a.sched[i].op = Get
		}
	}

	a.epochStart = make([]int, p.Epochs+1)
	for e := 0; e <= p.Epochs; e++ {
		a.epochStart[e] = e * p.Requests / p.Epochs
	}
	return a
}

// Name implements app.App.
func (a *App) Name() string { return "svmkv" }

// Setup allocates the store slabs, per-shard checksums, and hot
// counters. Slabs are page-aligned so shard migration moves whole
// pages; Blocked homes spread the shards across nodes.
func (a *App) Setup(ws *app.Workspace) {
	ps := ws.Cfg.PageSize
	slabBytes := a.slotsPer * a.p.ValWords * 8
	a.shardPages = (slabBytes + ps - 1) / ps
	ws.Alloc("kvstore", a.p.Shards*a.shardPages*ps, memory.Blocked)
	ws.Alloc("shardsum", 8*a.p.Shards, memory.Blocked)
	ws.Alloc("counters", 8*numCounters, memory.Blocked)
}

// Run implements app.App: each processor serves the shards it owns in
// the current epoch, walking the epoch's request range in global index
// order and handling the requests whose shard it owns.
func (a *App) Run(ctx *app.Ctx) {
	store := ctx.Workspace().Region("kvstore")
	sums := ctx.Workspace().Region("shardsum")
	counters := ctx.Workspace().Region("counters")
	ps := ctx.Workspace().Cfg.PageSize
	pageWords := ps / 8
	nproc := ctx.NProc()

	for e := 0; e < a.p.Epochs; e++ {
		for i := a.epochStart[e]; i < a.epochStart[e+1]; i++ {
			req := &a.sched[i]
			shard := int(req.key) % a.p.Shards
			if (shard+e)%nproc != ctx.ID() {
				continue
			}
			// Open-loop wait: the request is not in the system before its
			// scheduled arrival.
			if d := req.arr - ctx.Now(); d > 0 {
				ctx.Sleep(d)
			}
			slot := int(req.key) / a.p.Shards
			base := shard*a.shardPages*pageWords + slot*a.p.ValWords
			var folded int64
			switch req.op {
			case Put:
				// Parse + hash + store path.
				ctx.Compute(80)
				for w := 0; w < a.p.ValWords; w++ {
					v := int64(rng.Mix64(a.p.Seed ^ uint64(i)<<8 ^ uint64(w)))
					ctx.SetI64(store, base+w, v)
					if w == 0 {
						folded = v
					}
				}
			case Incr:
				ctx.Compute(40)
				c := int(rng.Mix64(uint64(i)) % numCounters)
				ctx.Lock(lockBase + c)
				ctx.SetI64(counters, c, ctx.I64(counters, c)+int64(i)+1)
				ctx.Unlock(lockBase + c)
			default: // Get
				ctx.Compute(50)
				folded = ctx.I64(store, base)
				for w := 1; w < a.p.ValWords; w++ {
					_ = ctx.I64(store, base+w)
				}
			}
			if req.op != Incr {
				// Order-dependent fold: validates that every shard's
				// requests were served in global index order.
				s := ctx.I64(sums, shard)
				ctx.SetI64(sums, shard, s*1099511628211+folded)
			}
			ctx.RecordLatency(ctx.Now() - req.arr)
		}
		// Epoch fence: coherence point for the ownership handoff and the
		// cross-epoch ordering guarantee.
		ctx.Barrier()
	}
}
