package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/chaos"
)

// runChaos executes the named scenario (or all of them) under the given
// seed and returns the process exit code: 0 when every run finished
// with zero anomalies and zero unexcused errors, 1 otherwise. Each
// failing report carries its seed and the exact replay commands.
func runChaos(scenario string, seed int64) int {
	var specs []chaos.Spec
	if scenario == "" {
		specs = chaos.Scenarios()
	} else {
		spec, ok := chaos.Scenario(scenario)
		if !ok {
			fmt.Fprintf(os.Stderr, "clusterbench: unknown scenario %q; have: %s\n",
				scenario, strings.Join(chaos.ScenarioNames(), ", "))
			return 2
		}
		specs = []chaos.Spec{spec}
	}

	fmt.Printf("chaos: %d scenario(s) under seed %d\n\n", len(specs), seed)
	failures := 0
	for _, spec := range specs {
		rep, err := chaos.Run(spec, seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clusterbench: scenario %s (seed %d): %v\n", spec.Name, seed, err)
			failures++
			continue
		}
		fmt.Println(rep)
		if rep.Failed() {
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "chaos: %d of %d scenario(s) FAILED under seed %d — replay with -chaos -seed %d\n",
			failures, len(specs), seed, seed)
		return 1
	}
	fmt.Printf("chaos: all %d scenario(s) clean under seed %d\n", len(specs), seed)
	return 0
}
