// Realtraining: the complete pipeline with no surrogate — generate
// molten-salt reference data with the classical MD engine (the CP2K
// substitute), then run the paper's §2.2.4 evaluation workflow end to
// end for two hyperparameter candidates: decode genome → UUID run
// directory → input.json template substitution → real DeepPot-SE
// training → fitness from lcurve.out.  Everything is scaled down so it
// finishes in seconds on a laptop.
//
//	go run ./examples/realtraining
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"repro/internal/dataset"
	"repro/internal/hpo"
	"repro/internal/md"
)

func main() {
	// 1. Reference data: a 20-atom molten AlCl₃/KCl mixture at 498 K.
	rng := rand.New(rand.NewSource(1))
	species := []md.Species{}
	for i := 0; i < 4; i++ {
		species = append(species, md.Al)
	}
	for i := 0; i < 2; i++ {
		species = append(species, md.K)
	}
	for i := 0; i < 14; i++ {
		species = append(species, md.Cl)
	}
	pot := md.NewPaperBMH(4.5)
	fmt.Println("generating reference trajectory with the classical MD engine…")
	data := dataset.Generate(rng, species, 9.0, 498, pot, 0.5, 300, 10, 40)
	data.Shuffle(rng)
	train, val := data.Split(dataset.PaperValFraction)
	fmt.Printf("dataset: %d training / %d validation frames, %d atoms\n",
		train.Len(), val.Len(), train.NAtoms())

	// 2. The evaluation workflow with the real in-process trainer.
	workDir, err := os.MkdirTemp("", "realtraining-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(workDir)
	trainer := &hpo.RealTrainer{Train: train, Val: val, Workers: 2, ValFrames: 5}
	evaluator := &hpo.WorkflowEvaluator{
		WorkDir: workDir,
		// Shrink the fixed network sizes so training takes seconds: the
		// paper's {25,50,100}/{240,240,240} become {6,12}/{16}.
		Template: strings.NewReplacer(
			"[25, 50, 100]", "[6, 12]",
			"[240, 240, 240]", "[16]",
		).Replace(hpo.DefaultInputTemplate),
		Steps: 500, DispFreq: 100, Seed: 3,
		TrainDir: "unused-in-process", ValDir: "unused-in-process",
		Trainer: hpo.TrainerFunc(trainer.TrainRun),
	}

	// 3. Evaluate two candidates: a sensible one and an undertrained one.
	candidates := []hpo.HParams{
		{StartLR: 0.005, StopLR: 1e-4, RCut: 4.0, RCutSmth: 2.0,
			ScaleByWorker: "none", DescActiv: "tanh", FittingActiv: "tanh"},
		{StartLR: 5e-7, StopLR: 4e-7, RCut: 4.0, RCutSmth: 2.0,
			ScaleByWorker: "none", DescActiv: "tanh", FittingActiv: "tanh"},
	}
	for i, h := range candidates {
		g, err := hpo.Encode(h)
		if err != nil {
			log.Fatal(err)
		}
		fit, err := evaluator.Evaluate(context.Background(), g)
		if err != nil {
			log.Fatalf("candidate %d: %v", i+1, err)
		}
		fmt.Printf("candidate %d (%s):\n  rmse_e_val=%.4g eV/atom  rmse_f_val=%.4g eV/Å\n",
			i+1, h, fit[0], fit[1])
	}
	fmt.Println("\nthe well-tuned candidate should show clearly lower losses —")
	fmt.Println("the same signal the 3500-training Summit campaign optimizes at scale.")
}
