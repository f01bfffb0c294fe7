module ivmeps/bench

go 1.24

require ivmeps v0.0.0

replace ivmeps => ../
