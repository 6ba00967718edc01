module qgear/benchmark

go 1.21

require qgear v0.0.0

replace qgear => ../
