//go:build !linux

package main

import (
	"errors"
	"time"
)

func processCPU() time.Duration { return 0 }
func threadCPU() time.Duration  { return 0 }

type cpuSplit struct{}

func splitCPUs() cpuSplit      { return cpuSplit{} }
func (cpuSplit) confine()      {}
func (cpuSplit) pinGenerator() {}
func (cpuSplit) release()      {}

type idleSpinner struct{}

func startIdleSpinner(cpuSplit) (*idleSpinner, error) {
	return nil, errors.New("bench: idle spinner: unsupported here")
}
func (*idleSpinner) stop() {}
func spinIfChild()         {}
