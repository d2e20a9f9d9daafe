module qirana/benchmark

go 1.22

require qirana v0.0.0

replace qirana => ../
