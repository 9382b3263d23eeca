package core

import (
	"slices"

	"smtmlp/internal/mlp"
)

// MLPState bundles the per-thread MLP machinery of Section 4: the
// miss-pattern long-latency load predictor (front end), the LLSR (commit
// stage) and the distance/binary MLP predictors it trains. The core owns one
// MLPState per hardware thread and keeps it trained on every run, whatever
// the active fetch policy, so characterization experiments (Figures 4, 6, 7
// and 8) and the MLP-aware policies see exactly the same machinery.
type MLPState struct {
	MissPattern mlp.MissPatternPredictor
	LLSR        mlp.LLSR
	Distance    mlp.DistancePredictor
	Binary      mlp.BinaryPredictor

	// Binary MLP prediction accounting at LLSR-update time (Figure 7):
	// does the predicted distance agree with the measured distance about
	// whether there is any MLP?
	TruePos, TrueNeg, FalsePos, FalseNeg uint64

	// Far-enough accounting (Figure 8): a prediction is correct when the
	// predicted distance is at least the measured distance.
	FarEnough    uint64
	DistanceObs  uint64
	DistanceHist []uint64 // histogram of measured MLP distances (Figure 4)
}

// reset restores s to untrained predictors with the given table and LLSR
// sizes and zero accounting, reusing its tables.
func (s *MLPState) reset(entries, llsrSize int) {
	*s = MLPState{
		MissPattern:  s.MissPattern,
		LLSR:         s.LLSR,
		Distance:     s.Distance,
		Binary:       s.Binary,
		DistanceHist: slices.Grow(s.DistanceHist[:0], llsrSize+1)[:llsrSize+1],
	}
	clear(s.DistanceHist)
	s.MissPattern.Reset(entries, 6)
	s.LLSR.Reset(llsrSize)
	s.Distance.Reset(entries, llsrSize)
	s.Binary.Reset(entries)
}

// observeCommit feeds one committed instruction into the LLSR and, when a
// long-latency load reaches the head, scores the previous prediction and
// trains the distance and binary predictors (Figure 3's update flow).
func (s *MLPState) observeCommit(longLatency bool, pc uint64) {
	headPC, dist, update := s.LLSR.Commit(longLatency, pc)
	if !update {
		return
	}
	predicted := s.Distance.Predict(headPC)
	switch {
	case predicted > 0 && dist > 0:
		s.TruePos++
	case predicted == 0 && dist == 0:
		s.TrueNeg++
	case predicted > 0 && dist == 0:
		s.FalsePos++
	default:
		s.FalseNeg++
	}
	if predicted >= dist {
		s.FarEnough++
	}
	s.DistanceObs++
	if dist < len(s.DistanceHist) {
		s.DistanceHist[dist]++
	}
	s.Distance.Update(headPC, dist)
	s.Binary.Update(headPC, dist > 0)
}

// resetStats zeroes the accounting while keeping predictor contents.
func (s *MLPState) resetStats() {
	s.TruePos, s.TrueNeg, s.FalsePos, s.FalseNeg = 0, 0, 0, 0
	s.FarEnough, s.DistanceObs = 0, 0
	for i := range s.DistanceHist {
		s.DistanceHist[i] = 0
	}
	s.MissPattern.Predictions = 0
	s.MissPattern.Correct = 0
	s.MissPattern.Misses = 0
	s.MissPattern.MissesPredicted = 0
}

// BinaryAccuracy returns the Figure 7 fractions (true positives, true
// negatives, false positives, false negatives), or ok=false when no
// long-latency load has reached the LLSR head yet.
func (s *MLPState) BinaryAccuracy() (tp, tn, fp, fn float64, ok bool) {
	total := s.TruePos + s.TrueNeg + s.FalsePos + s.FalseNeg
	if total == 0 {
		return 0, 0, 0, 0, false
	}
	t := float64(total)
	return float64(s.TruePos) / t, float64(s.TrueNeg) / t,
		float64(s.FalsePos) / t, float64(s.FalseNeg) / t, true
}

// FarEnoughAccuracy returns the Figure 8 metric: the fraction of LLSR
// updates whose prior prediction was at least the measured distance.
func (s *MLPState) FarEnoughAccuracy() (float64, bool) {
	if s.DistanceObs == 0 {
		return 0, false
	}
	return float64(s.FarEnough) / float64(s.DistanceObs), true
}
