//go:build !linux

package main

import (
	"errors"
	"net/netip"
)

// socketSupported is false where IP_PKTINFO source selection and
// RUSAGE_THREAD are unavailable: the socket workloads report unsupported.
const socketSupported = false

var errUnsupported = errors.New("bench: socket workloads need linux (IP_PKTINFO, RUSAGE_THREAD)")

type sender struct{ dst netip.AddrPort }

func newSender() (*sender, error)            { return nil, errUnsupported }
func (s *sender) port() uint16               { return 0 }
func (s *sender) send([]byte, [4]byte) error { return errUnsupported }
func (s *sender) close()                     {}
