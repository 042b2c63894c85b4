// Command mdgen generates a molten AlCl₃/KCl training dataset with the
// classical MD engine — the substitute for the paper's CP2K FPMD data
// generation (§2.1.3).  Output is a DeePMD-style system directory (plus a
// sibling validation split of dataset.PaperValFraction, the paper's 25 %):
// type.raw and set.NNN/{coord,energy,force,box}.npy.
//
// Usage:
//
//	mdgen -out data/ [-frames 2000] [-box 17.84] [-temp 498] [-seed 1]
//	      [-equil 2000] [-every 10] [-rcut 5.0]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"path/filepath"

	"repro/internal/dataset"
	"repro/internal/md"
)

func main() {
	log.SetFlags(0)
	out := flag.String("out", "data", "output directory (train/ and val/ subdirectories)")
	frames := flag.Int("frames", 2000, "number of frames to sample")
	box := flag.Float64("box", 17.84, "cubic box side, Å (paper: 17.84)")
	temp := flag.Float64("temp", 498, "temperature, K (paper: 498)")
	seed := flag.Int64("seed", 1, "RNG seed")
	equil := flag.Int("equil", 2000, "equilibration steps before sampling")
	every := flag.Int("every", 10, "steps between samples")
	rcut := flag.Float64("rcut", 5.0, "MD interaction cutoff, Å")
	setSize := flag.Int("setsize", 1000, "frames per set.NNN directory")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	pot := md.NewPaperBMH(*rcut)
	fmt.Printf("simulating %d atoms (32 Al + 16 K + 112 Cl) at %.0f K in a %.2f Å box…\n",
		len(md.PaperComposition()), *temp, *box)
	d := dataset.Generate(rng, md.PaperComposition(), *box, *temp, pot, 0.5, *equil, *every, *frames)
	fmt.Printf("sampled %d frames; shuffling and splitting %.0f%% for validation\n",
		d.Len(), dataset.PaperValFraction*100)
	d.Shuffle(rng)
	train, valSet := d.Split(dataset.PaperValFraction)

	trainDir := filepath.Join(*out, "train")
	valDir := filepath.Join(*out, "val")
	if err := train.Save(trainDir, *setSize); err != nil {
		log.Fatalf("saving training set: %v", err)
	}
	if err := valSet.Save(valDir, *setSize); err != nil {
		log.Fatalf("saving validation set: %v", err)
	}
	fmt.Printf("wrote %d training frames to %s and %d validation frames to %s\n",
		train.Len(), trainDir, valSet.Len(), valDir)
}
