package fusion

import (
	"math"
	"math/rand"
	"testing"
)

// The score tables (tables.go) replace per-claim transcendental calls
// with per-(source, key) lookups. The contract is bit-identity: every
// table entry must be the exact float64 the kernel used to compute
// inline. These tests pin each table kernel against its direct
// math.Log/Pow form, walking the full sixteen-method roster so every
// method's table configuration is covered.

func bitEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// randomTrust fills deterministic pseudo-random trust values, including
// the out-of-range and NaN cases clampTrust guards.
func randomTrust(rng *rand.Rand, n int) []float64 {
	t := make([]float64, n)
	for i := range t {
		switch rng.Intn(8) {
		case 0:
			t[i] = 0 // clamped up
		case 1:
			t[i] = 1 // clamped down
		case 2:
			t[i] = math.NaN() // clamped to lo
		default:
			t[i] = rng.Float64()
		}
	}
	return t
}

// TestTableKernelsMatchDirectForms walks the paper's sixteen methods and
// checks, for each, that the table its kernels read carries bit-identical
// values to the direct per-claim computation it replaced.
func TestTableKernelsMatchDirectForms(t *testing.T) {
	const n = 23
	opts := Options{}.withDefaults()
	rng := rand.New(rand.NewSource(42))

	checkAccu := func(t *testing.T, cfg accuConfig) {
		numKeys := 0
		if cfg.perAttr {
			numKeys = 3
		}
		tab := newAccuTables(n, numKeys, opts, cfg)
		tr := &accuTrust{keyed: numKeys > 0}
		if tr.keyed {
			tr.byKey = make([][]float64, n)
			for s := range tr.byKey {
				tr.byKey[s] = randomTrust(rng, numKeys)
			}
		} else {
			tr.global = randomTrust(rng, n)
		}
		tab.update(tr)
		keys := numKeys
		if keys == 0 {
			keys = 1
		}
		for key := 0; key < keys; key++ {
			row := tab.row(int32(key))
			for s := 0; s < n; s++ {
				v := 0.0
				if tr.keyed {
					v = tr.byKey[s][key]
				} else {
					v = tr.global[s]
				}
				// The direct form the ACCU posterior loops used to
				// evaluate per claim.
				a := clampTrust(v, 0.01, 0.99)
				want := math.Log(a / (1 - a))
				if !cfg.popularity {
					want = math.Log(opts.NFalse) + want
				}
				if !bitEq(row[s], want) {
					t.Fatalf("logOdds[key=%d][s=%d] = %x, direct form %x",
						key, s, math.Float64bits(row[s]), math.Float64bits(want))
				}
			}
		}
	}

	for _, m := range Methods() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			switch m.kind {
			case dkVote, dkHub, dkTwoEst, dkThreeEst:
				// No transcendental per-claim term to table.
			case dkAvgLog:
				cps := make([]int, n)
				for s := range cps {
					cps[s] = rng.Intn(10)
				}
				logc := logClaimCounts(cps)
				for s, c := range cps {
					if want := math.Log(float64(c) + 1); !bitEq(logc[s], want) {
						t.Fatalf("logClaimCounts[%d] = %v, direct form %v", s, logc[s], want)
					}
				}
			case dkInvest, dkPooledInvest:
				cps := make([]int, n)
				for s := range cps {
					cps[s] = rng.Intn(5) // includes 0-claim sources
				}
				trust := randomTrust(rng, n)
				shares := make([]float64, n)
				investShares(shares, trust, cps)
				for s := range shares {
					want := 0.0
					if cps[s] > 0 {
						want = trust[s] / float64(cps[s])
					}
					if !bitEq(shares[s], want) {
						t.Fatalf("investShares[%d] = %v, direct form %v", s, shares[s], want)
					}
				}
			case dkCosine:
				trust := randomTrust(rng, n)
				cube := make([]float64, n)
				cosineCubeTable(cube, trust)
				for s, v := range trust {
					if want := v * v * v; !bitEq(cube[s], want) {
						t.Fatalf("cosineCubeTable[%d] = %v, direct form %v", s, cube[s], want)
					}
				}
			case dkTF:
				tau := randomTrust(rng, n)
				nlg := make([]float64, n)
				tfLogTable(nlg, tau)
				for s, v := range tau {
					if want := -math.Log(1 - math.Min(v, tfMaxTau)); !bitEq(nlg[s], want) {
						t.Fatalf("tfLogTable[%d] = %v, direct form %v", s, nlg[s], want)
					}
				}
			case dkAccu:
				checkAccu(t, m.cfg)
			default:
				t.Fatalf("method %s not covered by the table property test", m.Name())
			}
		})
	}
}

// TestPopTableMatchesDirectForm pins POPACCU's per-run pair table against
// the direct popularity computation its posterior loop used to repeat
// every round.
func TestPopTableMatchesDirectForm(t *testing.T) {
	p := randomProblem(7, 11, []uint16{3, 9, 1, 14, 6, 2, 11, 5, 8})
	tab := newPopTable(p)
	for i := range p.Items {
		it := &p.Items[i]
		lg, cnt := tab.rows(i)
		nb := len(it.Buckets)
		if len(lg) != nb*nb || len(cnt) != nb {
			t.Fatalf("item %d: rows sized %d/%d, want %d/%d", i, len(lg), len(cnt), nb*nb, nb)
		}
		m := float64(it.Providers)
		for b, bk := range it.Buckets {
			if want := float64(len(bk.Sources)); !bitEq(cnt[b], want) {
				t.Fatalf("item %d: cnt[%d] = %v, want %v", i, b, cnt[b], want)
			}
			for b2, bk2 := range it.Buckets {
				if b2 == b {
					continue
				}
				pop := float64(len(bk2.Sources)) / math.Max(1, m-float64(len(bk.Sources)))
				want := math.Log(math.Max(pop, 1e-9))
				if !bitEq(lg[b*nb+b2], want) {
					t.Fatalf("item %d: lg[%d,%d] = %v, direct form %v", i, b, b2, lg[b*nb+b2], want)
				}
			}
		}
	}
}

// TestTableRunsBitIdenticalAcrossParallelism runs every method over the
// same problem at parallelism 1 and 4: the tabled kernels must keep runs
// bit-identical at any fan-out, like the inline forms they replaced.
func TestTableRunsBitIdenticalAcrossParallelism(t *testing.T) {
	p := randomProblem(8, 12, []uint16{2, 7, 13, 4, 9, 1, 6, 12, 3})
	for _, m := range Methods() {
		serial := m.Run(p, Options{MaxRounds: 20, Parallelism: 1})
		fanned := m.Run(p, Options{MaxRounds: 20, Parallelism: 4})
		for s := range serial.Trust {
			if !bitEq(serial.Trust[s], fanned.Trust[s]) {
				t.Fatalf("%s: trust[%d] differs across parallelism: %x vs %x",
					m.Name(), s, math.Float64bits(serial.Trust[s]), math.Float64bits(fanned.Trust[s]))
			}
		}
		for i := range serial.Chosen {
			if serial.Chosen[i] != fanned.Chosen[i] {
				t.Fatalf("%s: chosen[%d] differs across parallelism", m.Name(), i)
			}
		}
	}
}
