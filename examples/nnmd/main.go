// NNMD: the full deep-potential lifecycle in one run — generate
// reference data with classical MD (the CP2K substitute), train a
// DeepPot-SE model on it, freeze the model to disk, reload it, and run
// molecular dynamics *under the learned potential*, comparing its
// predictions against the reference along the trajectory.  This is the
// application the paper's hyperparameter tuning exists to serve (§1).
//
//	go run ./examples/nnmd
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/dataset"
	"repro/internal/deepmd"
	"repro/internal/descriptor"
	"repro/internal/md"
	"repro/internal/nn"
)

func main() {
	// 1. Reference data from the classical molten-salt potential.
	rng := rand.New(rand.NewSource(1))
	species := []md.Species{
		md.Al, md.Al, md.K, md.K,
		md.Cl, md.Cl, md.Cl, md.Cl, md.Cl, md.Cl, md.Cl, md.Cl,
	}
	refPot := md.NewPaperBMH(4.5)
	fmt.Println("1. generating reference trajectory (classical BMH+Coulomb)…")
	data := dataset.Generate(rng, species, 8.5, 498, refPot, 0.5, 400, 10, 60)
	data.Shuffle(rng)
	train, val := data.Split(dataset.PaperValFraction)

	// 2. Train a small DeepPot-SE model.
	fmt.Println("2. training a DeepPot-SE potential on the reference data…")
	model, err := deepmd.NewModel(rand.New(rand.NewSource(2)), deepmd.ModelConfig{
		Descriptor: descriptor.Config{
			RCut: 4.2, RCutSmth: 2.0,
			EmbeddingSizes: []int{8, 16}, AxisNeurons: 4,
			Activation: nn.Tanh, NumSpecies: 3, NeighborNorm: 8,
		},
		FittingSizes:      []int{24},
		FittingActivation: nn.Tanh,
		NumSpecies:        3,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := deepmd.Train(context.Background(), model, train, val, deepmd.TrainConfig{
		Steps: 2500, BatchSize: 2, StartLR: 0.005, StopLR: 1e-4,
		ScaleByWorker: "none", Workers: 1, DispFreq: 500, ValFrames: 8, Seed: 3,
	}, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   final validation: rmse_e=%.4g eV/atom, rmse_f=%.4g eV/Å\n",
		res.FinalEnergyRMSE, res.FinalForceRMSE)

	// 3. Freeze and reload (the `dp freeze` step).
	dir, err := os.MkdirTemp("", "nnmd-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	frozen := filepath.Join(dir, "frozen.model")
	if err := model.SaveFile(frozen); err != nil {
		log.Fatal(err)
	}
	loaded, err := deepmd.LoadModelFile(frozen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3. froze and reloaded model (%d parameters) at %s\n", loaded.ParamCount(), frozen)

	// 4. MD under the learned potential, checking against the reference.
	fmt.Println("4. running MD under the learned potential…")
	sys := md.NewSystem(rand.New(rand.NewSource(4)), species, 8.5, 400)
	nnPot := deepmd.NewMDPotential(loaded)
	it := md.NewIntegrator(nnPot, md.Langevin{T: 498, Gamma: 0.05, Rng: rand.New(rand.NewSource(5))}, 0.5)
	nnPot.Compute(sys)

	refSys := &md.System{Box: sys.Box, Species: sys.Species,
		Pos: make([]md.Vec3, sys.N()), Vel: make([]md.Vec3, sys.N()), Frc: make([]md.Vec3, sys.N())}
	var sumAbs, maxAbs float64
	var nSamples int
	it.Run(sys, 400, 100, func(step int) {
		// Evaluate the reference potential on the NN-driven configuration.
		copy(refSys.Pos, sys.Pos)
		refPot.Compute(refSys)
		diff := math.Abs(sys.PotEng-refSys.PotEng) / float64(sys.N())
		sumAbs += diff
		if diff > maxAbs {
			maxAbs = diff
		}
		nSamples++
		fmt.Printf("   step %4d: T=%6.1f K  E_nn=%9.3f eV  E_ref=%9.3f eV  |ΔE|/atom=%.4f\n",
			step, sys.Temperature(), sys.PotEng, refSys.PotEng, diff)
	})
	fmt.Printf("\nlearned-vs-reference energy along the NN trajectory: mean %.4f, max %.4f eV/atom\n",
		sumAbs/float64(nSamples), maxAbs)
	fmt.Println("(a briefly trained toy model drifts out of distribution as force errors")
	fmt.Println(" compound along the trajectory — exactly the failure mode §3.2 warns about,")
	fmt.Println(" and why the Summit campaign pushes validation error below 0.004 eV/atom)")
}
