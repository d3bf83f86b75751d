module ciphermatch/bench

go 1.24

require ciphermatch v0.0.0

replace ciphermatch => ../
