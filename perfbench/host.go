package main

import "runtime"

// host is the fingerprint every result records.
type host struct {
	nproc, gomaxprocs int
	goVersion, cpu    string
}

func hostInfo() host {
	return host{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		cpu:        cpuModel(),
	}
}
