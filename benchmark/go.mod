module graphite/benchmark

go 1.24

require graphite v0.0.0

replace graphite => ../
