module github.com/movesys/move/benchmark

go 1.22

require github.com/movesys/move v0.0.0

replace github.com/movesys/move => ../
