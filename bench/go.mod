module costream/bench

go 1.24

require costream v0.0.0

replace costream => ../
