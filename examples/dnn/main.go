// DNN example: run a ResNet20-style CIFAR-10 layer (conv3x3 + bias + ReLU
// fused, then a standalone activation over the feature map) on several
// device configurations, comparing the runtime lws mapping against the
// paper's fixed baselines on each.
//
//	go run ./examples/dnn
package main

import (
	"fmt"
	"log"

	vortex "repro"
	"repro/internal/core"
	"repro/internal/kernels"
)

func main() {
	const (
		channels = 16
		side     = 32
		seed     = 7
	)

	configs := []vortex.HWInfo{
		{Cores: 1, Warps: 2, Threads: 2},
		{Cores: 2, Warps: 4, Threads: 8},
		{Cores: 8, Warps: 8, Threads: 16},
	}

	fmt.Printf("ResNet20 layer (conv3x3 %d->%d on %dx%d + ReLU): gws=%d\n\n",
		channels, channels, side, side, channels*side*side)

	for _, hw := range configs {
		fmt.Printf("=== %s (hp=%d) ===\n", hw.Name(), hw.HP())
		type outcome struct {
			name   string
			cycles uint64
			lws    int
		}
		var outcomes []outcome
		for _, m := range []vortex.Mapper{core.Naive{}, core.Fixed{N: 32}, core.Auto{}} {
			dev, err := vortex.NewDevice(vortex.DefaultConfig(hw.Cores, hw.Warps, hw.Threads))
			if err != nil {
				log.Fatal(err)
			}
			dev.SetMapper(m)

			// Layer part 1: fused conv3x3 + bias + ReLU.
			conv, err := kernels.BuildConv3x3(dev, channels, side, seed)
			if err != nil {
				log.Fatal(err)
			}
			convRes, err := conv.RunVerified(dev, 0)
			if err != nil {
				log.Fatal(err)
			}

			// Layer part 2: a standalone activation pass over a feature
			// map of the same size (as networks interleave between conv
			// layers). Each launch gets its own Eq. 1 decision.
			relu, err := kernels.BuildRelu(dev, channels*side*side, seed+1)
			if err != nil {
				log.Fatal(err)
			}
			reluRes, err := relu.RunVerified(dev, 0)
			if err != nil {
				log.Fatal(err)
			}

			total := convRes.Cycles + reluRes.Cycles
			outcomes = append(outcomes, outcome{
				name:   m.Name(),
				cycles: total,
				lws:    convRes.Launches[0].LWS,
			})
			lr := convRes.Launches[0]
			fmt.Printf("  %-7s conv lws=%-4d %8d cycles (%s, %d batches, L1 %.1f%% hits) + relu %7d cycles = %8d\n",
				m.Name(), lr.LWS, convRes.Cycles, lr.Regime, lr.Batches, lr.L1.HitRate()*100, reluRes.Cycles, total)
		}
		ours := outcomes[len(outcomes)-1].cycles
		fmt.Printf("  speedup of runtime mapping: %.2fx over lws=1, %.2fx over lws=32\n\n",
			float64(outcomes[0].cycles)/float64(ours), float64(outcomes[1].cycles)/float64(ours))
	}

	// Show the tuning advice the runtime produces without running anything.
	fmt.Println("runtime advice (no simulation needed):")
	for _, hw := range configs {
		a := vortex.Advise(channels*side*side, hw)
		fmt.Printf("  %s: %s\n", hw.Name(), a.Explanation)
	}
}
