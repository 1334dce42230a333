// Package sigctl is the shared signal discipline of every binary in
// this repo: the first SIGINT/SIGTERM cancels the returned context so
// the pipeline drains and seals (manifests, ack logs, and spools hold
// the last committed state), and a second signal skips the orderly
// drain and exits immediately with status 130. Before this package
// each cmd carried its own copy of the watcher; now edgesim,
// edgereport, edgemerged, edgestudyd and segcat all share one
// implementation, so "^C drains, ^C^C exits" holds fleet-wide.
package sigctl

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

// exit is swapped out by tests; binaries always hard-exit.
var exit = os.Exit

// Context returns a copy of parent cancelled on the first
// SIGINT/SIGTERM and arms a watcher that turns the second signal into
// an immediate os.Exit(130), printing notice to stderr first: when an
// operator hits ^C twice they want out now, not after the pipeline
// unwinds. The returned stop releases the signal registrations.
func Context(parent context.Context, notice string) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		<-sig
		fmt.Fprintln(os.Stderr, notice)
		exit(130)
	}()
	return ctx, stop
}
