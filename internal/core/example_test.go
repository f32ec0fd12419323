package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
)

// ExampleSystem shows the minimal closed loop: build a system for a
// workload, run generations, inspect results. With HardwareInLoop the
// same call also accounts each generation on the simulated SoC.
func ExampleSystem() {
	sys, err := core.New(core.Config{
		Workload:   "cartpole",
		Seed:       7,
		Population: 100,
	})
	if err != nil {
		log.Fatal(err)
	}
	sum, err := sys.Run(20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("solved:", sum.Solved)
	// Output:
	// solved: true
}

// ExampleSystem_hardwareInLoop runs one generation with the chip model
// attached and reads the hardware ledger.
func ExampleSystem_hardwareInLoop() {
	sys, err := core.New(core.Config{
		Workload:       "mountaincar",
		Seed:           5,
		Population:     30,
		HardwareInLoop: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.RunGeneration()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("has hardware report:", res.HasHW)
	fmt.Println("spent energy:", res.HW.Float("energy_pj") > 0)
	fmt.Println("fits on-chip:", res.HW.Int("spills") == 0)
	// Output:
	// has hardware report: true
	// spent energy: true
	// fits on-chip: true
}
