package main

import (
	"fmt"
	"os"
	"strings"
)

// referenceFile is the checked-in output of every experiment at default
// scale, relative to the repository root.
const referenceFile = "results_full.txt"

// reference is the expected output every rendered table is checked
// against. The simulator is not validated against hardware; correct
// here means byte-identical to the reference.
type reference string

// loadReference reads the reference file from the repository root, the
// working directory of every run.
func loadReference() (reference, error) {
	data, err := os.ReadFile(referenceFile)
	if err != nil {
		return "", fmt.Errorf("loading reference: %w", err)
	}
	return reference(data), nil
}

// printed returns one experiment's output as simctrl prints it: with
// the trailing blank line that separates it from the next experiment.
func printed(out string) string {
	if !strings.HasSuffix(out, "\n\n") {
		out += "\n"
	}
	return out
}

// has reports whether one experiment's rendered output appears verbatim
// in the reference.
func (r reference) has(out string) bool {
	return strings.Contains(string(r), printed(out))
}
