package deepmd

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
)

// LossPrefactors holds the DeePMD loss weighting.  The training loss per
// frame is
//
//	L(t) = p_e(t)·(ΔE/N)² + p_f(t)/(3N)·Σ‖ΔF‖²
//
// where each prefactor interpolates between its start and limit value with
// the decaying learning rate: p(t) = limit + (start − limit)·lr(t)/lr(0).
// The paper fixes start/limit to (0.02, 1) for energy and (1000, 1) for
// force (§2.1.2), so training initially minimizes force error and
// gradually shifts weight onto the energy error (§2.2.1).
type LossPrefactors struct {
	StartPrefE, LimitPrefE float64
	StartPrefF, LimitPrefF float64
}

// PaperPrefactors returns the fixed prefactors of §2.1.2.
func PaperPrefactors() LossPrefactors {
	return LossPrefactors{StartPrefE: 0.02, LimitPrefE: 1, StartPrefF: 1000, LimitPrefF: 1}
}

// At returns (p_e, p_f) for learning-rate ratio lrRatio = lr(t)/lr(0).
func (p LossPrefactors) At(lrRatio float64) (pe, pf float64) {
	pe = p.LimitPrefE + (p.StartPrefE-p.LimitPrefE)*lrRatio
	pf = p.LimitPrefF + (p.StartPrefF-p.LimitPrefF)*lrRatio
	return pe, pf
}

// FrameErrors returns the per-atom energy error ΔE/N and the force
// component RMSE for a single frame prediction.
func FrameErrors(f *dataset.Frame, ePred float64, fPred []float64) (ePerAtom, fRMSE float64) {
	n := len(f.Coord) / 3
	ePerAtom = (ePred - f.Energy) / float64(n)
	s := 0.0
	for k := range fPred {
		d := fPred[k] - f.Force[k]
		s += d * d
	}
	fRMSE = math.Sqrt(s / float64(len(fPred)))
	return ePerAtom, fRMSE
}

// EvalErrors computes the dataset-level RMSEs DeePMD reports in
// lcurve.out: rmse_e is the RMS of per-atom energy errors over frames,
// rmse_f the RMS over all force components — the two quantities the EA
// minimizes (§2.2.4).  frames limits how many frames are evaluated (0 =
// all).
func EvalErrors(m *Model, d *dataset.Dataset, frames int) (rmseE, rmseF float64) {
	// The in-memory source never fails to produce a frame.
	rmseE, rmseF, _ = EvalErrorsSource(m, d, frames)
	return rmseE, rmseF
}

// EvalErrorsSource is EvalErrors over any FrameSource; the error reports
// a failed frame read (out-of-core sources only).
//
// Frames are evaluated on a worker pool bounded by m.Threads(); the
// per-frame error terms are reduced in frame order afterwards, so the
// result is bit-identical for every worker count.
func EvalErrorsSource(m *Model, src FrameSource, frames int) (rmseE, rmseF float64, err error) {
	if frames <= 0 || frames > src.Len() {
		frames = src.Len()
	}
	if frames == 0 {
		return 0, 0, nil
	}
	types := src.AtomTypes()
	type frameErr struct {
		se, sf float64
		nf     int
		err    error
	}
	res := make([]frameErr, frames)
	evalOne := func(s *evalScratch, i int) {
		fr, err := src.Frame(i)
		if err != nil {
			res[i] = frameErr{err: err}
			return
		}
		e, f := m.evalFrame(s, fr.Coord, types, fr.Box)
		de, _ := FrameErrors(fr, e, f)
		var sf float64
		for k := range f {
			diff := f[k] - fr.Force[k]
			sf += diff * diff
		}
		res[i] = frameErr{se: de * de, sf: sf, nf: len(f)}
	}

	threads := m.Threads()
	if threads > frames {
		threads = frames
	}
	if threads <= 1 {
		s := m.getScratch()
		for i := 0; i < frames; i++ {
			evalOne(s, i)
		}
		m.putScratch(s)
	} else {
		var next int64
		var wg sync.WaitGroup
		for w := 0; w < threads; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := m.getScratch()
				defer m.putScratch(s)
				for {
					i := int(atomic.AddInt64(&next, 1)) - 1
					if i >= frames {
						return
					}
					evalOne(s, i)
				}
			}()
		}
		wg.Wait()
	}

	var se, sf float64
	var nf int
	for i := range res {
		if res[i].err != nil {
			// First failed frame wins, deterministically.
			return 0, 0, res[i].err
		}
		se += res[i].se
		sf += res[i].sf
		nf += res[i].nf
	}
	return math.Sqrt(se / float64(frames)), math.Sqrt(sf / float64(nf)), nil
}
