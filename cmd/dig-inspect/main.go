// Command dig-inspect shows a kernel's Data Indirection Graph two ways:
// the hand-written registration the workload builds at runtime (Fig. 6
// path) and the one the compiler pass derives from the kernel's Go source
// in internal/workloads (Fig. 7/8 path), bound to the same memory layout.
//
// Usage:
//
//	dig-inspect -algo bfs [-dataset po]
//
// It prints the registered DIG, the registration calls the instrumented
// binary would contain, the derived DIG, the symbolic differences between
// registration and source, and a verdict. It reads kernel source, so it
// must run inside the module.
//
// Exit codes: 0 the DIGs are equal, or the kernel carries a
// `//lint:allow dig-drift` directive and its registration is a subset of
// the derived DIG; 1 any other difference or an error; 2 usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"prodigy/internal/compiler"
	"prodigy/internal/compiler/frontend"
	"prodigy/internal/dig"
	"prodigy/internal/graph"
	"prodigy/internal/lint"
	"prodigy/internal/workloads"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

// run is the whole command; it returns the exit code.
func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("dig-inspect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	algo := fs.String("algo", "bfs", "algorithm: bc bfs cc pr sssp spmv symgs cg is")
	dataset := fs.String("dataset", "po", "graph dataset (graph algorithms only)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := inspect(stdout, *algo, *dataset); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// inspect prints one kernel's registered and derived DIGs and returns an
// error unless the verdict accepts them.
func inspect(out io.Writer, algo, dataset string) error {
	k, err := findKernel(algo)
	if err != nil {
		return err
	}
	if !workloads.IsGraphAlgo(algo) {
		dataset = ""
	}
	w, err := workloads.Build(algo, dataset, 1, workloads.Options{Scale: graph.ScaleTiny})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "=== %s: registered DIG (%s, Fig. 6 path) ===\n", algo, k.FuncName)
	fmt.Fprintln(out, w.DIG)
	fmt.Fprintf(out, "prefetch depth %d, look-ahead %d, storage %d bytes (16-entry tables)\n\n",
		w.DIG.Depth(), dig.LookaheadForDepth(w.DIG.Depth()), w.DIG.StorageBits(16)/8)

	f, err := k.LiftIR(w.Space)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "=== compiler-inserted registration calls (Fig. 7 path) ===")
	for _, r := range compiler.Analyze(f) {
		fmt.Fprintln(out, "  "+r.String())
	}
	derived, err := compiler.GenerateDIG(f)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\n=== compiler-derived DIG (from kernel source) ===")
	fmt.Fprintln(out, derived)

	drifts := k.Drift()
	fmt.Fprintf(out, "\n%d symbolic difference(s) between registration and source\n", len(drifts))
	for _, d := range drifts {
		fmt.Fprintf(out, "  %s: %s\n", k.Fset.Position(d.Pos), d.Msg)
	}

	v, err := verdict(k, w.DIG, derived)
	if err != nil {
		return fmt.Errorf("%s: %w", algo, err)
	}
	fmt.Fprintln(out, v)
	return nil
}

// verdict accepts equal DIGs, and a registration that is a subset of the
// derived DIG when the kernel carries a dig-drift allowance.
func verdict(k *frontend.Kernel, registered, derived *dig.DIG) (string, error) {
	switch {
	case dig.Equal(registered, derived):
		return "MATCH: the derived DIG equals the registered one", nil
	case k.AllowedDrift && dig.Subset(registered, derived):
		return fmt.Sprintf("SUBSET: the registered DIG is an allowed refinement of the derived one (%s)", k.AllowReason), nil
	case k.AllowedDrift:
		return "", errors.New("registered DIG is not a subset of the derived one")
	default:
		return "", errors.New("registered and derived DIGs differ")
	}
}

// findKernel extracts the named kernel from the module's workload source.
func findKernel(algo string) (*frontend.Kernel, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	cfg, err := lint.FindModuleRoot(cwd)
	if err != nil {
		return nil, err
	}
	kernels, err := frontend.ExtractDir(cfg.Root + "/internal/workloads")
	if err != nil {
		return nil, err
	}
	for _, k := range kernels {
		if k.Algo == algo {
			return k, nil
		}
	}
	return nil, fmt.Errorf("no kernel %q found in internal/workloads", algo)
}
