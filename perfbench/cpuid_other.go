//go:build !amd64

package main

// cpuModel is not probed off amd64.
func cpuModel() string { return "unknown" }
