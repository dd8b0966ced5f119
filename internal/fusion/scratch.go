package fusion

import "truthdiscovery/internal/parallel"

// This file holds the per-run allocation pool of the round executor
// (dist.go). Every executor allocates its scratch once, before the first
// round, and reuses it every round, so the warm steady state performs no
// heap allocation on the serial path (asserted by alloc_test.go). The
// two building blocks:
//
//   - voteSpace: the flat per-(item, bucket) score vector the methods
//     write, laid out by a shard's bucket offsets. The choice of answers,
//     the 2-/3-Estimates rescales and the fold kernels read the flat form
//     directly — no jagged [][]float64 and no per-round copy-backs.
//   - workerRows: one private per-item temporary row per parallel worker
//     (Cosine's cubic-mass vector, TruthFinder's raw scores, the ACCU
//     similarity boost), threaded through parallel.ForWorker.

// voteSpace is the flat per-(item, bucket) score storage: one float64 per
// bucket, in item order, spanned by the problem's BucketOff offsets.
type voteSpace struct {
	flat []float64
	off  []int32
}

// row returns item i's score span (len(Items[i].Buckets) entries).
func (v voteSpace) row(i int) []float64 { return v.flat[v.off[i]:v.off[i+1]] }

// newProbRows allocates posterior storage as one flat arena with per-item
// row views: posterior reads stay cache-local while incremental fusion
// can still share individual rows across runs (Result.Posteriors).
func newProbRows(p *Problem) [][]float64 {
	flat := make([]float64, p.NumBuckets())
	rows := make([][]float64, len(p.Items))
	for i := range rows {
		rows[i] = flat[p.BucketOff[i]:p.BucketOff[i+1]:p.BucketOff[i+1]]
	}
	return rows
}

// workerRows hands each parallel worker a private temporary row of
// MaxBuckets floats (padded to a cache line against false sharing).
// Rows hold only per-item transients that are fully rewritten for every
// item, so which worker processes which item never affects results and
// the serial/parallel bit-identity contract is preserved.
//
// workers snapshots the resolved worker count at allocation time; phase
// fan-outs must pass it (not the raw Parallelism knob) to ForWorker so a
// GOMAXPROCS change mid-run can never yield a worker index past rows.
type workerRows struct {
	workers int
	rows    [][]float64
}

// newWorkerRowsSize allocates rows of maxBuckets floats for the workers
// of the given parallelism. The executor sizes per-shard temps from the
// parts' recorded metadata, since arenas may be evicted.
func newWorkerRowsSize(maxBuckets, parallelism int) workerRows {
	w := parallel.Workers(parallelism)
	stride := (maxBuckets + 7) &^ 7
	if stride == 0 {
		stride = 8
	}
	flat := make([]float64, w*stride)
	rows := make([][]float64, w)
	for i := range rows {
		lo := i * stride
		// Capacity-capped so a defensive reslice past maxBuckets
		// allocates instead of silently aliasing the next worker's row.
		rows[i] = flat[lo : lo+maxBuckets : lo+maxBuckets]
	}
	return workerRows{workers: w, rows: rows}
}
