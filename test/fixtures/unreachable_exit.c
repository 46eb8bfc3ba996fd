/* No path reaches the function's exit: the loop spins forever.  Live
   variable analysis must not assume the exit node is reachable. */
int g;
int main(void) { int x = 0; top: x = x + 1; g = x; goto top; }
