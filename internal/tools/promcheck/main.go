// Command promcheck validates a Prometheus text exposition read from
// stdin: it fails on malformed lines, duplicate series, duplicate TYPE
// declarations, and histogram families missing their
// _bucket/_sum/_count triples. Series named as arguments must be
// present. CI pipes `curl /metrics` through it to keep the exposition
// contract honest.
package main

import (
	"fmt"
	"os"

	"repro/internal/obs"
)

func main() {
	exp, err := obs.CheckExposition(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "promcheck: %v\n", err)
		os.Exit(1)
	}
	for _, name := range os.Args[1:] {
		if len(exp.Get(name)) == 0 {
			fmt.Fprintf(os.Stderr, "promcheck: required series %s is missing\n", name)
			os.Exit(1)
		}
	}
	fmt.Printf("promcheck: ok — %d samples across %d typed families\n",
		len(exp.Samples), len(exp.Types))
}
