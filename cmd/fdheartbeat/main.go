// Command fdheartbeat runs the monitored side of the paper's architecture
// on a real network: it sends UDP heartbeats every η to an fdmonitor
// process and answers its clock-sync requests. To exercise the detector,
// stop it (Ctrl-C) and restart it.
//
// Usage:
//
//	fdheartbeat -listen :7008 -remote host:7007 -eta 1s
//
// With -remotes, one process heartbeats several monitors at once from a
// single socket: each monitor gets its own η-grid, all starting together,
// and may retune its own η (wanfd.WithTargetDetection) without touching
// the others':
//
//	fdheartbeat -listen :7008 -remotes hostA:7007,hostB:7007 -eta 1s
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wanfd"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fdheartbeat:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen  = flag.String("listen", ":7008", "local UDP address")
		remote  = flag.String("remote", "", "monitor UDP address")
		remotes = flag.String("remotes", "", "comma-separated additional monitor addresses (one socket, one η-grid each)")
		eta     = flag.Duration("eta", time.Second, "heartbeat period")
	)
	flag.Parse()
	var extra []string
	for _, r := range strings.Split(*remotes, ",") {
		if r = strings.TrimSpace(r); r != "" {
			extra = append(extra, r)
		}
	}
	if *remote == "" && len(extra) == 0 {
		return fmt.Errorf("-remote or -remotes is required")
	}
	hb, err := wanfd.RunHeartbeater(wanfd.HeartbeaterConfig{
		Listen:  *listen,
		Remote:  *remote,
		Remotes: extra,
		Eta:     *eta,
	})
	if err != nil {
		return err
	}
	defer hb.Close()
	targets := len(extra)
	if *remote != "" {
		targets++
	}
	fmt.Printf("heartbeating to %d monitor(s) every %v from %s\n", targets, *eta, hb.LocalAddr())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	<-sigCh
	fmt.Printf("stopping after %d heartbeats\n", hb.Sent())
	return nil
}
