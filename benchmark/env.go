package main

// The environment block every output document carries, so a run made
// on a drifted or different machine is identifiable after the fact.

import (
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

type envBlock struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	LoadAvg    string `json:"load_average"`
}

func readEnv() envBlock {
	e := envBlock{
		Commit:     "unknown", // a driver checkout is not a git repository
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   "unknown",
		LoadAvg:    "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					e.Commit += "+dirty"
				}
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		e.LoadAvg = strings.Join(strings.Fields(string(data))[:3], " ")
	}
	return e
}
