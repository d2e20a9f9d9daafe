package pricing

// Approximate pricing from a deterministic sub-sample of the support
// set (ROADMAP item 2, after VerdictDB's sample-first/refine-later
// serving model). Every pricing function is a sum over support-set
// elements or over blocks of the partition they induce, so sweeping
// only a sample yields a Horvitz–Thompson-style point estimate with a
// confidence interval. The SERVED price, however, is not the point
// estimate: arbitrage safety (the paper's Theorem 3 discipline, and the
// five-schema differential in approx_test.go at the repo root) demands
// that an approximate quote is NEVER below the exact price — a 95% CI
// upper bound would be wrong one time in twenty. Estimate.Price is
// therefore a deterministic, worst-case-completion upper bound:
//
//   - WeightedCoverage: every unsampled element is assumed to disagree,
//     so Upper = Σ_{i∈sample, dis_i} w_i + Σ_{i∉sample} w_i. The true
//     price adds at most the unsampled weight, never more.
//   - UniformEntropyGain: the disagreement count is at most
//     d_sampled + (n−m), and scaleUEG is monotone in the count, so
//     Upper = scaleUEG(d_sampled + n − m).
//   - Shannon/QEntropy: price the REFINEMENT of the true partition in
//     which sampled elements keep their observed blocks and every
//     unsampled element is its own singleton. Splitting a block w into
//     w1+w2 increases −Σ w·log w (strict concavity) and Σ w(1−w)
//     (the cross term 2·w1·w2 is positive), so any true completion —
//     which can only merge those singletons — prices at or below the
//     refinement. The normalization (vmax over the all-singletons
//     partition) and clamps are byte-for-byte the exact fold's, so the
//     ordering survives them: exact ≤ upper pre-clamp, both clamp
//     through the same monotone map.
//
// Estimate.Point and Estimate.CI are reporting-only provenance: the
// point estimate is Horvitz–Thompson (coverage), a log-scaled HT count
// (UEG), or a plug-in over the sampled partition (entropies); the CI is
// a ±1.96σ half-width where a sampling variance exists and the one-sided
// gap Upper−Point for the entropies, where the plug-in has no clean
// closed-form variance.

import (
	"context"
	"fmt"
	"math"

	"qirana/internal/sqlengine/exec"
)

// zCI is the normal quantile behind the reported ~95% confidence
// half-widths and the MaxError→sample-size rule in the broker.
const zCI = 1.96

// Estimate is the result of pricing a sampled sweep.
type Estimate struct {
	// Price is the served price: a deterministic upper bound on the
	// exact price (see the package comment for the per-function
	// argument). Rounding "up to the bound" keeps approximate quotes
	// arbitrage-safe.
	Price float64
	// Point is the statistical point estimate of the exact price.
	Point float64
	// CI is the half-width of the ~95% confidence interval around
	// Point (one-sided gap Price−Point for the entropy functions).
	CI float64
	// SampleFrac is the realized sample fraction m/n.
	SampleFrac float64
	// SampleN is the number of sampled elements m.
	SampleN int
}

func (e *Engine) sampleCounts(sample []bool) (m, n int) {
	n = len(sample)
	for _, ok := range sample {
		if ok {
			m++
		}
	}
	return m, n
}

// EstimateFromSampledDisagreements folds a sampled disagreement vector
// into an approximate WeightedCoverage or UniformEntropyGain price.
// Only positions with sample[i]==true are read from dis; the rest may
// hold anything (shard responses zero them).
func (e *Engine) EstimateFromSampledDisagreements(fn Func, dis, sample []bool) (Estimate, error) {
	if len(dis) != e.Set.Size() || len(sample) != e.Set.Size() {
		return Estimate{}, fmt.Errorf("got %d disagreement bits and %d sample bits for support set of size %d",
			len(dis), len(sample), e.Set.Size())
	}
	m, n := e.sampleCounts(sample)
	if m == 0 {
		return Estimate{}, fmt.Errorf("empty sample")
	}
	frac := float64(m) / float64(n)
	est := Estimate{SampleFrac: frac, SampleN: m}
	switch fn {
	case WeightedCoverage:
		var sampledDis, unsampledW float64
		for i, in := range sample {
			if !in {
				unsampledW += e.Weights[i]
			} else if dis[i] {
				sampledDis += e.Weights[i]
			}
		}
		est.Price = sampledDis + unsampledW
		est.Point = sampledDis * float64(n) / float64(m)
		if est.Point > est.Price {
			est.Point = est.Price
		}
		// SRSWOR variance of the HT total from the sample values
		// x_i = w_i·dis_i: n²·(1−f)·S²/m.
		if m >= 2 {
			mean := sampledDis / float64(m)
			var ss float64
			for i, in := range sample {
				if in {
					x := 0.0
					if dis[i] {
						x = e.Weights[i]
					}
					ss += (x - mean) * (x - mean)
				}
			}
			s2 := ss / float64(m-1)
			est.CI = zCI * math.Sqrt(float64(n)*float64(n)*(1-frac)*s2/float64(m))
		} else {
			est.CI = est.Price - est.Point
		}
		return est, nil
	case UniformEntropyGain:
		d := 0
		for i, in := range sample {
			if in && dis[i] {
				d++
			}
		}
		est.Price = e.scaleUEG(d + n - m)
		dHat := float64(d) * float64(n) / float64(m)
		if dHat >= 1 && n > 1 {
			est.Point = e.Total * math.Log(dHat) / math.Log(float64(n))
			p := float64(d) / float64(m)
			sd := float64(n) * math.Sqrt((1-frac)*p*(1-p)/float64(m))
			// Delta method through log(d̂).
			est.CI = zCI * e.Total * sd / (dHat * math.Log(float64(n)))
		}
		if est.Point > est.Price {
			est.Point = est.Price
		}
		return est, nil
	}
	return Estimate{}, fmt.Errorf("pricing function %v is not derivable from a disagreement bitmap", fn)
}

// EstimateFromSampledHashes folds a sampled output-hash vector into an
// approximate Shannon or Tsallis entropy price. Only positions with
// sample[i]==true are read from hashes.
func (e *Engine) EstimateFromSampledHashes(fn Func, hashes []uint64, sample []bool) (Estimate, error) {
	if len(hashes) != e.Set.Size() || len(sample) != e.Set.Size() {
		return Estimate{}, fmt.Errorf("got %d output hashes and %d sample bits for support set of size %d",
			len(hashes), len(sample), e.Set.Size())
	}
	if fn != ShannonEntropy && fn != QEntropy {
		return Estimate{}, fmt.Errorf("pricing function %v is not derivable from output hashes alone", fn)
	}
	m, n := e.sampleCounts(sample)
	if m == 0 {
		return Estimate{}, fmt.Errorf("empty sample")
	}
	frac := float64(m) / float64(n)
	est := Estimate{SampleFrac: frac, SampleN: m}

	// Sampled blocks in first-appearance order, exactly like entropyPrice.
	blocks := make(map[uint64]float64)
	var order []uint64
	var sampledW float64
	for i, h := range hashes {
		if !sample[i] {
			continue
		}
		if _, seen := blocks[h]; !seen {
			order = append(order, h)
		}
		blocks[h] += e.Weights[i] / e.Total
		sampledW += e.Weights[i]
	}
	term := func(w float64) float64 {
		if w <= 0 {
			return 0
		}
		if fn == ShannonEntropy {
			return -w * math.Log(w)
		}
		return w * (1 - w)
	}
	// Upper bound: sampled blocks as observed, every unsampled element a
	// singleton — a refinement of any possible completion.
	var vUpper, vmax float64
	for _, h := range order {
		vUpper += term(blocks[h])
	}
	for i, in := range sample {
		if !in {
			vUpper += term(e.Weights[i] / e.Total)
		}
		vmax += term(e.Weights[i] / e.Total)
	}
	est.Price = e.clampEntropy(e.Total * vUpper / safeDenom(vmax))

	// Plug-in point estimate: the sampled partition re-normalized to the
	// sampled weight mass, scaled against the sampled all-singletons
	// bound (the same normalization the exact fold applies globally).
	if sampledW > 0 {
		var vHat, vmaxHat float64
		for _, h := range order {
			vHat += term(blocks[h] * e.Total / sampledW)
		}
		for i, in := range sample {
			if in {
				vmaxHat += term(e.Weights[i] / sampledW)
			}
		}
		if vmaxHat > 0 {
			est.Point = e.clampEntropy(e.Total * vHat / vmaxHat)
		}
	}
	if est.Point > est.Price {
		est.Point = est.Price
	}
	// The plug-in estimator has no clean closed-form variance; report the
	// one-sided gap to the sound bound as the uncertainty.
	est.CI = est.Price - est.Point
	return est, nil
}

// clampEntropy applies entropyPrice's exact output clamps so that the
// sampled upper bound and the exact price pass through the same monotone
// map (preserving upper ≥ exact after clamping).
func (e *Engine) clampEntropy(p float64) float64 {
	if p < 1e-9*e.Total {
		return 0
	}
	if p > e.Total {
		return e.Total
	}
	return p
}

func safeDenom(v float64) float64 {
	if v <= 0 {
		return 1
	}
	return v
}

// ApproxPriceCtx runs a sampled sweep over the elements selected by
// sample and returns the approximate price of the bundle qs under fn,
// leaving the sweep's Stats in LastStats. The sweep reuses the engine's
// live-mask machinery, so its cost scales with the sample size, not |S|.
func (e *Engine) ApproxPriceCtx(ctx context.Context, fn Func, sample []bool, qs ...*exec.Query) (Estimate, error) {
	var est Estimate
	var s Stats
	var err error
	switch fn {
	case WeightedCoverage, UniformEntropyGain:
		var dis []bool
		if dis, s, err = e.DisagreementsLiveCtx(ctx, qs, sample); err != nil {
			return Estimate{}, err
		}
		est, err = e.EstimateFromSampledDisagreements(fn, dis, sample)
	case ShannonEntropy, QEntropy:
		var hashes []uint64
		if hashes, _, s, err = e.OutputHashesLiveCtx(ctx, qs, sample); err != nil {
			return Estimate{}, err
		}
		est, err = e.EstimateFromSampledHashes(fn, hashes, sample)
	default:
		return Estimate{}, fmt.Errorf("unknown pricing function %v", fn)
	}
	if err != nil {
		return Estimate{}, err
	}
	e.setLastStats(s)
	return est, nil
}
