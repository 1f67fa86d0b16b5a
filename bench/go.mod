module busprobe/bench

go 1.22

require busprobe v0.0.0

replace busprobe => ../
