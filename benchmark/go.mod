module spitz/benchmark

go 1.22

require spitz v0.0.0

replace spitz => ../
