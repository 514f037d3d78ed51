// Package specctrl is a from-scratch Go reproduction of "Confidence
// Estimation for Speculation Control" (Klauser, Grunwald, Manne,
// Pleszkun; ISCA 1998, CU-CS-854-98).
//
// The repository contains the paper's confidence estimators, the branch
// predictors they attach to, an execution-driven pipeline simulator with
// real wrong-path execution, a synthetic SPECInt95-class workload suite,
// a driver for every table and figure in the paper's evaluation, and the
// speculation-control applications the paper motivates, each run as an
// experiment: pipeline gating (abl-gating), SMT fetch policy (smt) and
// eager execution (eager).
//
// Start with README.md for the architecture, DESIGN.md for the system
// inventory and experiment index, and EXPERIMENTS.md for measured-vs-
// paper results. The root package holds only this documentation.
//
//	go run ./cmd/simctrl -list
//	go run ./examples/quickstart
package specctrl
