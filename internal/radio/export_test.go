package radio

// TallyPaths is a Runner's step count per tally path.
type TallyPaths struct{ Sparse, Dense, Bitset, Faulty int64 }

// TallyPathSteps returns r's step counts per tally path, accumulated over
// every run, so tests outside the package can pin which paths real
// protocols reach.
func TallyPathSteps(r *Runner) TallyPaths {
	c := r.tallySteps
	return TallyPaths{Sparse: c[pathSparse], Dense: c[pathDense], Bitset: c[pathBitset], Faulty: c[pathFaulty]}
}
