module repro/benchmark

go 1.24.0

require repro v0.0.0

replace repro => ../
