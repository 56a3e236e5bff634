module csfltr/benchmark

go 1.22

require csfltr v0.0.0

replace csfltr => ../
