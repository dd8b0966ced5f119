package fusion

import "math"

// Per-round score tables for the fold kernels. The iterative methods'
// inner loops used to evaluate a transcendental (log, pow) per *claim*,
// but the argument of almost every such call depends only on the
// (source, trust key) pair — fixed within a round — or on the bucket
// structure — fixed within a run. These tables hoist those calls out of
// the per-claim loops: one evaluation per (source, key) per round (or
// per bucket pair per run), looked up by the kernels as a multiply-add.
//
// Bit-identity is preserved by construction: a table entry is the exact
// float64 the kernel used to compute inline (log/pow of identical
// operands is deterministic), and the kernels keep the original
// operation shapes and accumulation order. The frozen digests
// (digest_test.go) and the parallel, incremental, sharded and
// distributed equivalence suites assert this, and tables_test.go pins
// each table kernel against its direct form.
//
// All tables are allocated once per run (per-run scratch) and refilled
// in place each round, so warm rounds stay allocation-free
// (alloc_test.go).

// logNFalse is the shared ln(N) vote prior of the non-popularity ACCU
// configs.
func logNFalse(opts Options) float64 { return math.Log(opts.NFalse) }

// accuTables is the ACCU family's per-round trust table: the log-odds
// vote of every (source, trust key) pair, with the ln(N) prior folded in
// for the non-popularity configs. Layout is key-major ([key*n + s]) so a
// posterior phase reads one contiguous row per item.
type accuTables struct {
	n       int  // roster size
	numKeys int  // 0 = single global key
	addLogN bool // fold ln(N) into the entries (non-popularity configs)
	logN    float64
	logOdds []float64 // [key*n + s]
}

func newAccuTables(n, numKeys int, opts Options, cfg accuConfig) *accuTables {
	keys := numKeys
	if keys == 0 {
		keys = 1
	}
	return &accuTables{
		n:       n,
		numKeys: numKeys,
		addLogN: !cfg.popularity,
		logN:    logNFalse(opts),
		logOdds: make([]float64, keys*n),
	}
}

// update refills the table from the current trust state: one clamp and
// one math.Log per (source, key) per round, in place of one per claim.
// The entry value is exactly what accuPosterior's inner loop computed
// inline — (logN +) log(a/(1-a)) of the identical clamped accuracy — so
// kernels reading the table stay bit-identical.
func (t *accuTables) update(trust *accuTrust) {
	if t.numKeys == 0 {
		dst := t.logOdds
		for s, v := range trust.global {
			a := clampTrust(v, 0.01, 0.99)
			lo := math.Log(a / (1 - a))
			if t.addLogN {
				lo = t.logN + lo
			}
			dst[s] = lo
		}
		return
	}
	for s := 0; s < t.n; s++ {
		for key, v := range trust.byKey[s] {
			a := clampTrust(v, 0.01, 0.99)
			lo := math.Log(a / (1 - a))
			if t.addLogN {
				lo = t.logN + lo
			}
			t.logOdds[key*t.n+s] = lo
		}
	}
}

// row returns the log-odds entries of one trust key (all sources).
func (t *accuTables) row(key int32) []float64 {
	lo := int(key) * t.n
	return t.logOdds[lo : lo+t.n]
}

// popTable is POPACCU's per-run popularity table. The popularity term of
// bucket pair (b, b2) — cnt(b2) * log(max(cnt(b2)/max(1, m-cnt(b)), 1e-9))
// — depends only on the bucket structure, which never changes across
// rounds, so the log factors are computed once per run. cnt carries the
// per-bucket provider counts as float64 (laid out by BucketOff) so the
// kernel's multiply keeps its exact original operands.
type popTable struct {
	off  []int32   // per-item offsets into lg (item i's block is nb*nb wide)
	lg   []float64 // [off[i] + b*nb + b2] log popularity terms (diagonal unused)
	cnt  []float64 // per-bucket float64(len(Sources)), spanned by boff
	boff []int32   // = Problem.BucketOff
}

func newPopTable(p *Problem) *popTable {
	off := make([]int32, len(p.Items)+1)
	var tot int32
	for i := range p.Items {
		off[i] = tot
		nb := int32(len(p.Items[i].Buckets))
		tot += nb * nb
	}
	off[len(p.Items)] = tot
	t := &popTable{
		off:  off,
		lg:   make([]float64, tot),
		cnt:  make([]float64, p.NumBuckets()),
		boff: p.BucketOff,
	}
	for i := range p.Items {
		it := &p.Items[i]
		m := float64(it.Providers)
		nb := len(it.Buckets)
		base := int(off[i])
		cnt := t.cnt[p.BucketOff[i]:p.BucketOff[i+1]]
		for b := range it.Buckets {
			cnt[b] = float64(len(it.Buckets[b].Sources))
		}
		for b, bk := range it.Buckets {
			row := t.lg[base+b*nb : base+(b+1)*nb]
			for b2, bk2 := range it.Buckets {
				if b2 == b {
					continue
				}
				pop := float64(len(bk2.Sources)) / math.Max(1, m-float64(len(bk.Sources)))
				row[b2] = math.Log(math.Max(pop, 1e-9))
			}
		}
	}
	return t
}

// rows returns item i's pair-term block (nb*nb) and provider-count row.
func (t *popTable) rows(i int) (lg, cnt []float64) {
	return t.lg[t.off[i]:t.off[i+1]], t.cnt[t.boff[i]:t.boff[i+1]]
}

// tfLogTable refills TRUTHFINDER's per-source vote table: the
// -ln(1 - min(tau, tfMaxTau)) every claim of source s contributes this
// round, computed once per source instead of once per claim.
func tfLogTable(dst, tau []float64) {
	for s, t := range tau {
		dst[s] = -math.Log(1 - math.Min(t, tfMaxTau))
	}
}

// cosineCubeTable refills COSINE's per-source cubic vote weights
// (trust^3), once per source per round instead of once per claim.
func cosineCubeTable(dst, trust []float64) {
	for s, t := range trust {
		dst[s] = t * t * t
	}
}

// investShares refills INVEST/POOLEDINVEST's per-source investment
// share, trust(s)/claims(s) — the division every claim of s used to
// repeat in both the investment phase and the payback fold. Sources
// without claims get share 0; they appear in no bucket, so the kernels
// never read those entries.
func investShares(dst, trust []float64, cps []int) {
	for s := range dst {
		if c := cps[s]; c > 0 {
			dst[s] = trust[s] / float64(c)
		} else {
			dst[s] = 0
		}
	}
}

// logClaimCounts returns AVGLOG's per-source log(claims+1) factors.
// Claim counts never change across rounds, so this is computed once per
// run and avgLogTail reuses it every round.
func logClaimCounts(cps []int) []float64 {
	out := make([]float64, len(cps))
	for s, c := range cps {
		out[s] = math.Log(float64(c) + 1)
	}
	return out
}
