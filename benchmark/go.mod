module pgti/benchmark

go 1.24

require pgti v0.0.0

replace pgti => ../
