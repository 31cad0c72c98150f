module unitdb/bench

go 1.22

require unitdb v0.0.0

replace unitdb => ../
