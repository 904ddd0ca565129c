// Livemonitor: the paper's two-process architecture over real UDP sockets
// (both ends in this process, on loopback). A heartbeater sends every
// 100 ms; a monitor detects; we crash the heartbeater, watch the
// suspicion, restart it, and watch the trust return.
//
// Run with: go run ./examples/livemonitor
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"wanfd"
)

func main() {
	hbAddr, monAddr := freePort(), freePort()
	const eta = 100 * time.Millisecond

	hb, err := wanfd.RunHeartbeater(wanfd.HeartbeaterConfig{
		Listen: hbAddr,
		Remote: monAddr,
		Eta:    eta,
	})
	if err != nil {
		log.Fatal(err)
	}

	mon, err := wanfd.NewMonitor(monAddr, hbAddr,
		wanfd.WithEta(eta),
		wanfd.WithPredictor("LAST"),
		wanfd.WithMargin("JAC_med"),
		wanfd.WithSyncClock(),
		wanfd.WithOnSuspect(func(at time.Duration) {
			fmt.Printf("  [%6.2fs] SUSPECT\n", at.Seconds())
		}),
		wanfd.WithOnTrust(func(at time.Duration) {
			fmt.Printf("  [%6.2fs] TRUST\n", at.Seconds())
		}))
	if err != nil {
		log.Fatal(err)
	}
	defer mon.Close()
	fmt.Printf("monitor %s watching heartbeater %s (clock offset %v)\n",
		monAddr, hbAddr, mon.ClockOffset())

	fmt.Println("phase 1: heartbeats flowing for 2s")
	time.Sleep(2 * time.Second)
	hbs := mon.DetectorStats().Heartbeats
	fmt.Printf("  heartbeats seen: %d, timeout: %v, suspected: %v\n",
		hbs, mon.Timeout().Round(time.Millisecond), mon.Suspected())

	fmt.Println("phase 2: crashing the heartbeater")
	_ = hb.Close()
	time.Sleep(1 * time.Second)
	fmt.Printf("  suspected: %v\n", mon.Suspected())

	fmt.Println("phase 3: restarting the heartbeater")
	hb2, err := wanfd.RunHeartbeater(wanfd.HeartbeaterConfig{
		Listen: hbAddr,
		Remote: monAddr,
		Eta:    eta,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer hb2.Close()
	time.Sleep(1 * time.Second)
	fmt.Printf("  suspected: %v\n", mon.Suspected())
}

// freePort reserves a loopback UDP port and releases it for reuse.
func freePort() string {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	addr := pc.LocalAddr().String()
	_ = pc.Close()
	return addr
}
